(** Transaction identifiers [<c, m, t, l>] (§5.3): the configuration in
    which the commit started, the coordinator machine, the coordinator
    thread, and a thread-local sequence number. The encoding makes every
    participant able to tell, from a log record alone, which configuration
    a transaction belongs to and who coordinated it — the basis for
    recovering-transaction identification and for sharding recovery work
    across threads. *)

type t = { config : int; machine : int; thread : int; local : int }

val make : config:int -> machine:int -> thread:int -> local:int -> t
val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

val coord_key : t -> int * int
(** [(machine, thread)], the key for truncation tracking and recovery
    sharding. *)

val coord_id : t -> int
(** The same identity packed into one int — the allocation-free key the
    truncation tables use on the per-record hot path. *)

val pp : Format.formatter -> t -> unit

(** Tables keyed by txid, hashed with {!hash}. They place and iterate keys
    exactly as [Hashtbl.Make] over {!equal} and {!hash} would under the
    same history, so recovery's walks keep their order; the functions
    behave as their [Hashtbl] namesakes. *)
module Tbl : sig
  type key = t
  type 'a t

  val create : int -> 'a t
  val length : 'a t -> int
  val replace : 'a t -> key -> 'a -> unit
  val remove : 'a t -> key -> unit
  val find_opt : 'a t -> key -> 'a option
  val mem : 'a t -> key -> bool
  val iter : (key -> 'a -> unit) -> 'a t -> unit
  val fold : (key -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
end

module Set : Set.S with type elt = t
