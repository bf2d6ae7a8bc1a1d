(** Per-commit scratch arenas: flat growable structures in place of
    hashtables and cons lists. Every commit creates its own arena; the
    background processes that finish the commit close over it, and the GC
    reclaims it after the last of them. The arena owns only
    coordinator-side scratch; wire payloads and write items stay freshly
    allocated because receivers retain them (see the allocation-discipline
    section of DESIGN.md). *)

(** Growable flat vector. *)
module Vec : sig
  type 'a t = { mutable a : 'a array; mutable n : int }

  val create : unit -> 'a t
  val length : 'a t -> int

  val clear : 'a t -> unit
  (** O(1) rewind; the slots keep their elements. *)

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
    first-touch order. *)

type 'a group = { g_dst : int; g_items : 'a Vec.t }
type 'a groups = 'a group Vec.t

val group_add : 'a groups -> dst:int -> 'a -> unit

(** {1 Participant accounting} — per destination log: reserved bytes,
    consumed bytes, truncation-queued flag. *)

type acct = {
  a_dst : int;
  mutable a_reserved : int;
  mutable a_consumed : int;
  mutable a_trunc_queued : bool;
}

val acct_for : acct Vec.t -> int -> acct
(** Find or add the accounting entry for a destination. *)

val accts_sort : acct Vec.t -> unit
(** Sort the entries by destination id (deterministic participant
    order). *)

(** {1 The arena} *)

type t = {
  ro_key : int Vec.t;  (** packed addresses ({!Addr.pack}) *)
  ro_ver : int Vec.t;
  items : Wire.write_item Vec.t;
  wregions : int Vec.t;
  rregions : int Vec.t;
  info_rid : int Vec.t;
  infos : Wire.region_info Vec.t;
  primaries : Wire.write_item groups;
  backups : Wire.write_item groups;
  acct : acct Vec.t;
  ap_dst : int Vec.t;
  ap_pay : Wire.record Vec.t;
}

val create : unit -> t
(** An empty arena, for one commit. *)
