open Farm_sim

(** Sender-owned ring-buffer transaction logs (§3, §4).

    One log per sender-receiver machine pair, physically located in the
    receiver's non-volatile DRAM. Senders append records with one-sided
    RDMA writes acknowledged by the receiver's NIC alone; receivers process
    records with their CPU later; truncation frees space lazily and
    propagates the new head back to the sender lazily.

    Senders must reserve space before writing (the commit protocol reserves
    for every record it may produce, §4), so appends never overflow.
    Log space moves through three states: reserved by the sender → DMA'd
    and unprocessed (counted per transaction, {!pending_count}) → resident
    after processing ({!resident_records}), leaving only at truncation, or
    at processing for markers and aborted transactions ({!discard}). The
    receiver keeps one entry per transaction with records in the log, in
    a table created at the log's first record at the minimum size.

    Processing is deliberately not serialized per log: the commit protocol
    orders what must be ordered, and the receiver defers truncations for
    transactions that still have unprocessed records. *)

type entry = { size : int; record : Wire.log_record }

type t

val create : sender:int -> receiver:int -> capacity:int -> t
val sender : t -> int
val receiver : t -> int
val used : t -> int
val capacity : t -> int

val set_on_append : t -> (t -> entry -> unit) -> unit
(** Receiver-side processing trigger, fired at each DMA. *)

val txid_of_record : Wire.log_record -> Txid.t option

(** {1 Sender side} *)

val reserve : t -> int -> bool
(** Reserve [n] bytes against the sender's (lazily updated) view of free
    space; false when the log looks full. *)

val unreserve : t -> int -> unit

val reset_sender_view : t -> unit
(** After the sender restarts: drop dead reservations and resync the head
    estimate with the receiver-side truth. *)

val consume_reservation : t -> int -> unit
(** Issue a reservation-backed write: moves [n] bytes from reserved to the
    sender's used estimate. *)

(** {1 DMA (runs at the receiver-NIC write instant)} *)

val dma_append : t -> Wire.log_record -> size:int -> unit
(** Append a record; the NIC accepts it regardless of configuration. *)

(** {1 Receiver side} *)

val pending_count : t -> Txid.t -> int
(** Unprocessed records of a transaction — nonzero defers truncation. *)

val retain : t -> entry -> unit
(** Mark processed and keep resident for recovery until truncated. *)

val discard : t -> Engine.t -> entry -> unit
(** Mark processed and free immediately (markers, aborted transactions). *)

val resident_records : t -> Txid.t -> Wire.log_record list
val iter_resident : t -> (Txid.t -> Wire.log_record list -> unit) -> unit
(** Each transaction with resident records, with its records newest first,
    in the order a [Txid.Tbl] created with 64 buckets and the same
    insertions and removals would iterate: recovery walks logs this way,
    so its outputs depend on it. *)

val truncate : t -> Engine.t -> Txid.t -> int
(** Drop a transaction's resident records; returns how many. Frees space
    now and updates the sender's estimate lazily. *)
