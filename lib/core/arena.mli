(** Per-commit scratch arenas: pooled, reference-counted flat structures
    reset — not reallocated — between transactions. The arena owns only
    coordinator-side scratch; wire payloads and write items stay freshly
    allocated because receivers retain them (see the allocation-discipline
    section of DESIGN.md).

    A released arena keeps no reference to its last transaction: the
    last {!release} overwrites every pointer the arena staged with a
    dummy before the arena goes back to the pool. Once the receivers
    truncate a transaction's records, nothing holds its write items,
    values or records any more. *)

(** Growable flat vector with a dummy element. Slots at or past [n] hold
    the dummy, or, after a [clear], stale elements. *)
module Vec : sig
  type 'a t = { mutable a : 'a array; mutable n : int; dummy : 'a }

  val length : 'a t -> int

  val clear : 'a t -> unit
  (** O(1) rewind; the slots keep their elements. For scalar vectors. *)

  val scrub : 'a t -> unit
  (** Rewind and overwrite the used prefix with the dummy, dropping its
      references. Vectors of pointers are rewound only with [scrub]. *)

  val get : 'a t -> int -> 'a
  val push : 'a t -> 'a -> unit
  val iter : ('a -> unit) -> 'a t -> unit
  val fold : ('b -> 'a -> 'b) -> 'b -> 'a t -> 'b

  val to_list : 'a t -> 'a list
  (** Fresh list of the live elements, for payloads the arena must not
      own. *)
end

val sort_uniq_ints : int Vec.t -> unit
(** In-place sort + dedup with explicit int comparison; no allocation. *)

(** {1 Destination groups} — items grouped by destination machine in
    first-touch order; group records and their item vectors recycle. *)

type 'a group = { mutable g_dst : int; g_items : 'a Vec.t }
type 'a groups = { gs : 'a group Vec.t; mutable live : int }

val groups_clear : 'a groups -> unit

val group : 'a groups -> int -> 'a group
(** The [i]th live group, [0 <= i < live]. *)

val group_add : 'a groups -> dst:int -> 'a -> unit

(** {1 Participant accounting} — per destination log: reserved bytes,
    consumed bytes, truncation-queued flag. *)

type acct = {
  mutable a_dst : int;
  mutable a_reserved : int;
  mutable a_consumed : int;
  mutable a_trunc_queued : bool;
}

type accts

val acct_for : accts -> int -> acct
(** Find or add the accounting entry for a destination. *)

val accts_sort : accts -> unit
(** Sort live entries by destination id (deterministic participant
    order). *)

val accts_iter : (acct -> unit) -> accts -> unit

(** {1 The arena} *)

type t = {
  mutable refs : int;
  ro_key : int Vec.t;  (** packed addresses ({!Addr.pack}) *)
  ro_ver : int Vec.t;
  items : Wire.write_item Vec.t;
  wregions : int Vec.t;
  rregions : int Vec.t;
  info_rid : int Vec.t;
  infos : Wire.region_info Vec.t;
  primaries : Wire.write_item groups;
  backups : Wire.write_item groups;
  acct : accts;
  vgroups : int groups;
  rv_dst : int Vec.t;
  rv_idx : int Vec.t;
  ap_dst : int Vec.t;
  ap_pay : Wire.record Vec.t;
}

(** {1 Pool} — per machine; workers acquire one arena per commit. *)

type pool

val create_pool : reuse:bool -> pool
(** With [reuse:false] released arenas are dropped, so every commit gets
    freshly-zeroed scratch — the state-leak-detector mode driven by
    {!Params.arena_reuse}. *)

val acquire : pool -> t
(** Pop (or create) an empty arena with refcount 1. *)

val retain : t -> unit
(** Take a reference before handing the arena to a background process that
    outlives the commit call. *)

val release : pool -> t -> unit
(** Drop a reference; on the last one the arena is reset, its pointers
    scrubbed, and returned to the pool (or dropped when the pool does not
    reuse). *)
