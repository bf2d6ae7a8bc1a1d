(** Timing wheel keyed by [(key, seq)], for entries due within 262 us of
    the clock: 4,096 buckets of 64 ns, each sorted by key and then by push
    order. A caller whose [seq] only grows gets exactly [(key, seq)] order,
    as from {!Heap}. Pushes and pops allocate nothing beyond amortised
    growth, and a popped payload is released at once. *)

type 'a t

val create : empty:'a -> 'a t
(** [empty] fills every unused payload slot. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> now:int -> key:int -> seq:int -> 'a -> bool
(** Queue the entry and return [true] when [key] lies within the horizon;
    return [false] and queue nothing otherwise. The wheel's cursor first
    moves up to [now]; it never moves back, so after the clock has been
    wound back below it, keys below it are refused. Requires [key >= now],
    no queued key below [now], and [seq] above every queued seq. *)

val min_key : 'a t -> int
(** Smallest key queued; [max_int] when empty. *)

val min_seq : 'a t -> int
(** Sequence number of the entry {!min_key} belongs to. Raises
    [Invalid_argument] when empty. *)

val pop_value : 'a t -> 'a
(** Remove the entry with the smallest [(key, seq)] and return its
    payload. Raises [Invalid_argument] when empty. *)
