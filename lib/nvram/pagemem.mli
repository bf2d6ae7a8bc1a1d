(** Paged region memory.

    Fixed {!page_size}-byte pages, each allocated (zeroed) on its first
    write. An absent page reads as zeros, so a region's host memory grows
    with the bytes written to it rather than with its size. Every access
    may cross a page boundary. Offsets outside [0, length) raise
    [Invalid_argument], as [Bytes] does. *)

type t

val page_size : int

val create : int -> t
(** [create size]: a region of [size] zero bytes with no page resident. *)

val length : t -> int
(** Capacity in bytes. *)

val resident_bytes : t -> int
(** Bytes of the pages allocated so far. *)

val get_int64_le : t -> int -> int64
val set_int64_le : t -> int -> int64 -> unit

val sub : t -> int -> int -> Bytes.t
(** [sub t off len]: a fresh copy of [len] bytes from [off]. *)

val blit_from_bytes : Bytes.t -> int -> t -> int -> int -> unit
(** [blit_from_bytes src src_off t dst_off len], as [Bytes.blit]. *)
