(** A bounded ring of fixed-width records whose storage grows with use:
    the one buffer behind the flight recorder, the tracer and the timeline
    sampler.

    A slot is one tag (a constant name or constructor) and [stride] ints,
    stored flat in one int array beside one tag array. Storage is
    allocated at the first push and doubles whenever it is full, up to
    [capacity] slots; from then on each push overwrites the oldest slot.
    So a ring holds at most twice the slots written (or its first
    allocation of 16 slots) and never more than [capacity] slots. A push
    allocates only when the storage doubles. *)

type 'a t

val create : capacity:int -> stride:int -> 'a -> 'a t
(** An empty ring keeping at most [capacity] slots of [stride] ints each;
    the last argument fills tag slots not yet written. *)

val push : 'a t -> 'a -> int
(** Claim the next slot, tag it, and return the slot's handle for {!set}.
    The slot's ints keep what the overwritten slot held (zeros at first):
    the caller sets each of them. *)

val set : 'a t -> int -> int -> int -> unit
(** [set r h i v] stores [v] as int [i] (from 0) of the slot with handle [h]. *)

val get : 'a t -> int -> int -> int
(** [get r h i] reads int [i] of the slot with handle [h]. *)

val to_list : 'a t -> ('a -> int -> 'b) -> 'b list
(** [f tag h] for every live slot, oldest first. *)

val stride : _ t -> int

val total : _ t -> int
(** Pushes since creation, overwritten slots included. *)
