open Farm_core

(** Byte-level encoding helpers shared by the FaRM data structures. *)

val get_int : Bytes.t -> int -> int
val set_int : Bytes.t -> int -> int -> unit

(** Addresses packed into one word (region in the high bits, offset in the
    low 32; 0 encodes null). *)

val encode_addr : Addr.t -> int
val decode_addr : int -> Addr.t option
val get_addr : Bytes.t -> int -> Addr.t option
val set_addr : Bytes.t -> int -> Addr.t option -> unit

val fnv1a : Bytes.t -> int
(** 64-bit FNV-1a, masked non-negative; bucket selection. *)
