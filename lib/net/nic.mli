open Farm_sim

(** A machine's NICs, modelled as per-NIC FIFO pipelines with a
    per-message cost plus a per-byte cost. Saturating the pipelines is what
    makes one-sided reads NIC-rate-bound (Figure 2). *)

type t

val create : Engine.t -> params:Params.t -> t

val occupy : t -> bytes:int -> Time.t
(** Enqueue a message on the least-busy NIC; returns the instant the NIC
    finishes processing it. *)

val occupy_priority : t -> bytes:int -> Time.t
(** Dedicated-queue-pair path used by the lease manager: charged the service
    time but never queued behind bulk traffic. *)

val ops : t -> int
(** Total messages processed. *)

val bytes_total : t -> int
