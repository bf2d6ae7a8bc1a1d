open Farm_sim
open Farm_core
open Farm_kv

(** TATP — Telecommunication Application Transaction Processing (§6.2/6.3):
    four hash-table-backed tables and the standard seven-transaction mix
    (70% single-row lock-free lookups, 10% multi-row validated reads, 20%
    updates, with UPDATE_LOCATION function-shipped to the row's primary). *)

type t = {
  subscribers : int;
  sub : Hashtable.t;
  access : Hashtable.t;
  special : Hashtable.t;
  callfwd : Hashtable.t;
}

val key8 : int -> Bytes.t
val update_location_tag : int

val n_access : int -> int
(** Access rows of subscriber [s] (1-4), keys [s*4 + ai] for [ai < n_access s]. *)

val n_special : int -> int
(** Special facilities of subscriber [s] (1-4), keys [s*4 + sf] for
    [sf < n_special s]; facility [sf] starts with one call-forwarding row,
    key [(s*4 + sf)*3], iff [s + sf] is even. *)

val create : Cluster.t -> subscribers:int -> regions_per_table:int -> t
(** Allocate the four tables' regions, table by table, in one
    {!Cluster.alloc_regions} call, build the four tables already holding
    the rows of the TATP population rules ({!n_access}, {!n_special}),
    each with its initial value, and register the function-shipping
    handler on every machine. Every table is created by
    [Hashtable.create ~rows], at its regions' primaries: committed
    transactions write every bucket, filled, once, so backups equal
    primaries; there is no per-row insert pass. When [create] returns, the
    last of those commits are not yet truncated, so their backups still
    lag the primaries. *)

val load : Cluster.t -> t -> unit
(** Wait, with no transactions, until the build has settled
    ({!Cluster.settle}): its last commits are truncated and applied at
    their backups. This takes a few simulated milliseconds at most. TATP
    measurements start after [load]. *)

val random_sid : t -> Rng.t -> int
(** TATP's non-uniform (OR-based) subscriber-id generator — the skew behind
    the paper's throughput dips. *)

(** {1 The seven transactions} — each returns whether the transaction
    completed (application-level misses still count as completed). *)

val get_subscriber_data : State.t -> t -> Rng.t -> bool
val get_access_data : State.t -> t -> Rng.t -> bool
val get_new_destination : State.t -> thread:int -> t -> Rng.t -> bool
val update_subscriber_data : State.t -> thread:int -> t -> Rng.t -> bool
val update_location : State.t -> thread:int -> t -> Rng.t -> bool
val insert_call_forwarding : State.t -> thread:int -> t -> Rng.t -> bool
val delete_call_forwarding : State.t -> thread:int -> t -> Rng.t -> bool

val op : t -> Driver.worker_ctx -> bool
(** One operation of the standard mix. *)
