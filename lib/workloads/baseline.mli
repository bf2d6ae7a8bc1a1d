open Farm_core

(** Single-machine baseline for the §6.3 Hekaton/Silo comparisons: FaRM
    confined to one machine with replication 1 (no network, no
    replication), an over-approximation of a single-machine in-memory
    engine under the same cost model. *)

val cluster : ?seed:int -> unit -> Cluster.t
