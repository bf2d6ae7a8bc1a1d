(** Min-heap keyed by [(key, seq)].

    The secondary [seq] key gives FIFO order among entries with equal
    primary keys. {!Engine} keeps its cancellable timers here, since
    {!remove} drops one by handle, and the events past its timing wheel's
    horizon ({!Wheel}); {!min_key} and {!min_seq} let it run whichever of
    the heap's root and the wheel's head has the smaller [(key, seq)].

    Keys, sequence numbers and slot indices live in [int] arrays and the
    payloads in a slot array that sifting never touches, so [push],
    {!min_key} and {!pop_value} allocate nothing (beyond amortised growth).
    A popped or removed payload's slot is cleared at once: the heap holds no
    reference to anything it has returned or dropped. *)

type 'a t

type handle
(** Names one pushed entry, for {!remove}. An immediate: holding one keeps
    nothing alive. *)

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> key:int -> seq:int -> 'a -> unit

val push_handle : 'a t -> key:int -> seq:int -> 'a -> handle
(** {!push}, returning a handle that can remove the entry before it is
    popped. *)

val remove : 'a t -> handle -> unit
(** Drop the entry [handle] names and release its payload. A no-op when that
    entry has already been popped or removed, even if its slot now holds a
    later entry. *)

val min_key : 'a t -> int
(** Smallest key currently in the heap. Raises [Invalid_argument] when
    empty. *)

val min_seq : 'a t -> int
(** Sequence number of the entry {!min_key} belongs to. Raises
    [Invalid_argument] when empty. *)

val pop_value : 'a t -> 'a
(** Remove the entry with the smallest [(key, seq)] and return its payload.
    Raises [Invalid_argument] when empty. *)

val pop : 'a t -> (int * 'a) option
(** Remove and return the entry with the smallest [(key, seq)]. *)
