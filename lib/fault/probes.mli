open Farm_sim
open Farm_core

(** SLO invariant probes: graceful-degradation checks for a healed,
    quiesced cluster. Where {!Invariant} checks state correctness, these
    check that degradation was *explained* — commit stalls coincide with
    suspicion evidence, and nothing stays parked or queued after heal.
    Pure functions of cluster state: replayed seeds report identical
    violations. *)

val suspicion_tags : string list
(** Milestone tags accepted as evidence that the cluster noticed a fault
    (suspect / reconfiguration / recovery milestones). *)

val zero_runs : ?from:int -> int array -> (int * int) list
(** The zero-runs of a per-bin commit series between its first and last
    nonzero bins at or after bin [from] (default 0), as inclusive
    [(first, last)] bin pairs in order. *)

val no_global_stall : start:Time.t -> Cluster.t -> string list
(** Violations for every cluster-wide commit stall longer than 3x the lease
    duration that overlaps no suspicion milestone, scanning the per-ms
    committed series of the load window that begins at [start] (from its
    first to its last nonzero bin) with one threshold of slack around each
    stall. *)

val no_parked_tx : Cluster.t -> string list
(** Violations for transactions still in a live member's active-transaction
    table more than 2x [park_timeout] after they began: after heal +
    quiesce every coordinator must have drained. *)

val queues_drained : queues:(unit -> (string * int) list) -> unit -> string list
(** Violations for admission queues ([label, depth] pairs reported by
    [queues]) that still hold requests; open-loop load may queue during an
    outage but must drain after heal. *)

val gray : seed:int -> Cluster.t -> string list
(** The standard gray-sweep probe ({!no_global_stall} + {!no_parked_tx}),
    shaped for [Explorer.sweep ~probe]. *)
