(** On-NVRAM object layout (§3).

    Every object starts with an 8-byte header word — lock bit (63),
    allocation bit (62), version (0..61) — followed by its data bytes.
    Versions serve both optimistic concurrency control and replication:
    a committed write installs [version + 1] and data recovery copies an
    object only when the source version is newer. *)

val header_size : int

(** {1 Header words} *)

val make : locked:bool -> allocated:bool -> version:int -> int64
val is_locked : int64 -> bool
val is_allocated : int64 -> bool
val version : int64 -> int
val with_locked : int64 -> bool -> int64
val with_allocated : int64 -> bool -> int64
val with_version : int64 -> int -> int64

(** {1 Memory access}

    On a region's paged memory; an object may straddle a page boundary. *)

val get : Farm_nvram.Pagemem.t -> off:int -> int64
val set : Farm_nvram.Pagemem.t -> off:int -> int64 -> unit

val cas : Farm_nvram.Pagemem.t -> off:int -> expected:int64 -> desired:int64 -> bool
(** Single-word compare-and-swap; atomic because the simulator never
    preempts a closure, as a real CAS instruction would be. *)

val read_data : Farm_nvram.Pagemem.t -> off:int -> len:int -> Bytes.t
(** A fresh copy of the [len] data bytes after the header at [off]. *)

val write_data : Farm_nvram.Pagemem.t -> off:int -> Bytes.t -> unit
