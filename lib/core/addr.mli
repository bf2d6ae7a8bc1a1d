(** Global addresses: a region identifier plus the byte offset of the
    object's header within the region (§3). *)

type t = { region : int; offset : int }

val make : region:int -> offset:int -> t
val compare : t -> t -> int
val equal : t -> t -> bool

val pack : t -> int
(** The address as one int: region above bit 32, offset below. Packed
    keys order exactly as {!compare}; transaction read and write sets are
    keyed by them. *)

val unpack : int -> t

val packed_region : int -> int
val packed_offset : int -> int
(** The fields of a packed address, without building the record. *)

val pp : Format.formatter -> t -> unit
