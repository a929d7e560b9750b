(* The SimBench program builders under their own library name; they live
   in [Workloads.Simbench], next to the registry that lists the suite. *)

include Workloads.Simbench
