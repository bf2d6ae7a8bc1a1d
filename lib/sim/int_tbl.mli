(** Hash tables keyed by [int], hashed without a runtime call.

    {!hash} is bit-identical to [Hashtbl.hash] on ints, and the table runs
    the stdlib's [Hashtbl] algorithm, so a table of this module puts every
    key in the same bucket as a generic [Hashtbl] of the same history, and
    [iter], [fold] and [filter_map_inplace] visit keys in the same order:
    swapping one for the other changes no simulated outcome. The functions
    behave as their [Hashtbl] namesakes. *)

type 'a t

val create : int -> 'a t
val length : 'a t -> int
val reset : 'a t -> unit
val add : 'a t -> int -> 'a -> unit
val replace : 'a t -> int -> 'a -> unit
val remove : 'a t -> int -> unit
val find : 'a t -> int -> 'a
val find_opt : 'a t -> int -> 'a option
val mem : 'a t -> int -> bool
val iter : (int -> 'a -> unit) -> 'a t -> unit
val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
val filter_map_inplace : (int -> 'a -> 'a option) -> 'a t -> unit

val hash : int -> int
(** [hash x = Hashtbl.hash x]. *)

val hash4 : int -> int -> int -> int -> int
(** [hash4 a b c d = Hashtbl.hash (a, b, c, d)], without building the
    tuple. *)
