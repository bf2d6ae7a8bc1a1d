(** A machine's non-volatile DRAM.

    Banks are owned by the cluster harness, not by the machine's process
    context: killing a machine's FaRM process leaves its bank intact, which
    is exactly the guarantee the distributed-UPS design of §2.1 provides.
    {!wipe} models losing the NVRAM contents too (battery failure), used by
    the f-failure durability tests. *)

type t

val create : unit -> t

val alloc : t -> key:int -> size:int -> Pagemem.t
(** Allocate a zeroed region [key]; no page is resident until written.
    Raises if present. *)

val find : t -> key:int -> Pagemem.t option

val total_bytes : t -> int
(** Capacity of every region: the DRAM the energy model of §2.1 must
    save, whether or not it was ever written. *)

val resident_bytes : t -> int
(** Host bytes of the pages written so far. *)

val wipe : t -> unit
(** Lose all contents (power failure without a successful SSD save). *)

val is_wiped : t -> bool
