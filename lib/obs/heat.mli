(** Decaying per-region access/conflict heat counters.

    One [Heat.t] lives in each machine's {!Obs} sink. The commit pipeline
    bumps [access] on every object read or write and [conflict] on every
    abort charged to a region; both counters decay exponentially with a
    configurable half-life so the report reflects {e current} load, not
    history. This is the load signal ROADMAP item 3's CM-driven placement
    consumes (via [Cluster.heat_report]).

    The implementation obeys the obs contract: recording is a hashtable
    probe plus integer writes (allocation only on a region's first touch),
    decay is applied lazily with pure integer arithmetic
    ([v lsr (elapsed / half_life)], the timestamp advanced by whole
    half-lives so no fractional residue accumulates), and nothing here
    reads an {!Farm_sim.Rng} or schedules engine work — callers pass the
    current sim time in. *)

type t

val create : ?half_life_ns:int -> unit -> t
(** [half_life_ns] defaults to 10 ms of sim time. *)

val access : t -> now:int -> region:int -> unit
(** Count one object access (read or write) against [region] at sim time
    [now] (ns). *)

val conflict : t -> now:int -> region:int -> unit
(** Count one conflict (an abort charged to [region]): a refused lock on
    an object there, or a failed validation of an object read from it. *)

type score = {
  hs_region : int;
  hs_access : int;  (** decayed access count as of the report instant *)
  hs_conflict : int;  (** decayed conflict count *)
  hs_score : int;  (** [hs_access + 4 * hs_conflict] — conflicts weigh 4x *)
}

val report : t -> now:int -> score list
(** Every region ever touched, decayed to [now], hottest first (ties by
    region id, so the order is deterministic). Regions whose counters have
    decayed to zero are dropped. *)

val merge : t list -> now:int -> score list
(** Cluster-wide view: per-region sums of the per-machine decayed
    counters, hottest first. *)
