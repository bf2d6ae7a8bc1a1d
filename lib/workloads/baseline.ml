open Farm_core

(* Single-machine baseline (the Hekaton/Silo comparison of §6.3).

   The paper's claims against single-machine in-memory engines are scaling
   claims: FaRM with 3 machines already beats them. Under our simulator's
   cost model the fairest stand-in is FaRM itself confined to one machine
   with replication 1 — no network, no replication, local commits — which
   over-approximates a single-machine engine's throughput per core. The
   scaling benchmark compares an n-machine FaRM cluster against this
   baseline under the identical workload. *)

let cluster ?seed () =
  Cluster.create ?seed ~params:{ Params.default with Params.replication = 1 } ~machines:1 ()
