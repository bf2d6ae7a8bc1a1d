open Farm_sim

(* Sender-owned ring-buffer transaction logs (§3).

   Each sender-receiver machine pair has one log, physically located in the
   receiver's non-volatile DRAM. The sender appends records with one-sided
   RDMA writes acknowledged by the receiver's NIC alone; the receiver's CPU
   later processes records, and truncation lazily frees space and lazily
   propagates the new head back to the sender.

   Space is accounted in bytes against [capacity]. Records are kept as
   typed values (plus their wire size) rather than serialized bytes; see
   DESIGN.md. Log space moves through three states:
     reserved (sender)  ->  unprocessed (DMA'd)  ->  resident
   and leaves the ring only at truncation (or, for markers and aborted
   transactions, when discarded after processing). The log counts a
   transaction's unprocessed records in [pending_tx] and keeps its
   processed ones in [resident]; an unprocessed entry itself is held only
   by the receiver's processing trigger.

   The receiver's tables are created at the log's first record: a fleet
   of n machines has n^2 logs, and a log that never receives a record
   costs no table.

   Record processing is not serialized per log: the commit protocol itself
   orders the records that must be ordered (a COMMIT-PRIMARY is only
   written after the LOCK reply, so a transaction's LOCK is always fully
   processed before its later records arrive). The one cross-record hazard
   — a truncation overtaking the processing of the records it truncates —
   is handled by the receiver deferring truncations while the transaction
   still has unprocessed entries (see [pending_tx]). *)

type entry = { size : int; record : Wire.log_record }

type tables = {
  pending_tx : int Txid.Tbl.t;  (* txid -> unprocessed record count *)
  resident : entry list Txid.Tbl.t;  (* processed, awaiting truncation *)
}

type t = {
  sender : int;
  receiver : int;
  capacity : int;
  mutable tables : tables option;  (* None until the first record *)
  mutable used : int;  (* receiver-side truth: unprocessed + resident bytes *)
  mutable on_append : t -> entry -> unit;  (* receiver processing trigger *)
  (* sender-side state *)
  mutable reserved : int;
  mutable used_estimate : int;  (* sender's lazily-updated view of [used] *)
}

let create ~sender ~receiver ~capacity =
  {
    sender;
    receiver;
    capacity;
    tables = None;
    used = 0;
    on_append = (fun _ _ -> ());
    reserved = 0;
    used_estimate = 0;
  }

let set_on_append t fn = t.on_append <- fn
let sender t = t.sender
let receiver t = t.receiver
let used t = t.used
let capacity t = t.capacity

let txid_of_record (r : Wire.log_record) =
  match r.payload with
  | Lock p | Commit_backup p -> Some p.txid
  | Commit_primary { txid; _ } -> Some txid
  | Abort txid -> Some txid
  | Truncate_marker -> None

(* {1 Sender side} *)

let free_estimate t = t.capacity - t.used_estimate - t.reserved

let reserve t n =
  if free_estimate t >= n then begin
    t.reserved <- t.reserved + n;
    true
  end
  else false

let unreserve t n =
  t.reserved <- t.reserved - n;
  if t.reserved < 0 then t.reserved <- 0

(* After a sender restarts, its reservations died with it and its head
   estimate is stale: resynchronize against the receiver-side truth. *)
let reset_sender_view t =
  t.reserved <- 0;
  t.used_estimate <- t.used

(* Called by the sender when it issues a reservation-backed write: the
   write will consume the space, so the estimate grows and the reservation
   shrinks. *)
let consume_reservation t n =
  unreserve t n;
  t.used_estimate <- t.used_estimate + n

(* {1 DMA (runs at the receiver-NIC write instant)} *)

(* [pending_tx] is never iterated, so it starts at the minimum size.
   Recovery iterates [resident], whose order depends on its bucket count:
   it keeps 64 buckets, so every recovery output is as with a table
   created with the log. *)
let tables t =
  match t.tables with
  | Some tb -> tb
  | None ->
      let tb = { pending_tx = Txid.Tbl.create 1; resident = Txid.Tbl.create 64 } in
      t.tables <- Some tb;
      tb

(* The NIC accepts the write regardless of configuration; the sender
   reserved the space, so the ring never overflows. *)
let dma_append t record ~size =
  let e = { size; record } in
  let tb = tables t in
  t.used <- t.used + size;
  (match txid_of_record record with
  | Some txid ->
      let n = match Txid.Tbl.find_opt tb.pending_tx txid with Some n -> n | None -> 0 in
      Txid.Tbl.replace tb.pending_tx txid (n + 1)
  | None -> ());
  t.on_append t e

(* {1 Receiver side} *)

let pending_count t txid =
  match t.tables with
  | None -> 0
  | Some tb -> ( match Txid.Tbl.find_opt tb.pending_tx txid with Some n -> n | None -> 0)

(* Mark an entry as no longer unprocessed (it was either retained or
   discarded by its processor). *)
let processed t (e : entry) =
  match txid_of_record e.record with
  | Some txid -> (
      let pending = (tables t).pending_tx in
      match Txid.Tbl.find_opt pending txid with
      | Some n when n > 1 -> Txid.Tbl.replace pending txid (n - 1)
      | _ -> Txid.Tbl.remove pending txid)
  | None -> ()

(* After the receiver CPU processes an entry it stays resident so that
   recovery can re-examine it until the coordinator truncates the
   transaction. *)
let retain t (e : entry) =
  processed t e;
  match txid_of_record e.record with
  | Some txid ->
      let tb = tables t in
      let existing = match Txid.Tbl.find_opt tb.resident txid with Some l -> l | None -> [] in
      Txid.Tbl.replace tb.resident txid (e :: existing)
  | None -> ()

let lazy_head_update = Time.us 50

let release_space t engine freed =
  t.used <- t.used - freed;
  Engine.schedule_in engine ~after:lazy_head_update (fun () ->
      t.used_estimate <- t.used_estimate - freed;
      if t.used_estimate < 0 then t.used_estimate <- 0)

(* Drop a processed entry without retaining it (markers, aborted
   transactions). *)
let discard t engine (e : entry) =
  processed t e;
  release_space t engine e.size

let find_resident t txid =
  match t.tables with None -> None | Some tb -> Txid.Tbl.find_opt tb.resident txid

let resident_records t txid =
  match find_resident t txid with
  | Some l -> List.map (fun e -> e.record) l
  | None -> []

let iter_resident t fn =
  match t.tables with
  | None -> ()
  | Some tb ->
      Txid.Tbl.iter (fun txid entries -> fn txid (List.map (fun e -> e.record) entries)) tb.resident

(* Truncate a transaction: drop its resident records and free their space.
   The sender's head estimate is updated lazily. *)
let truncate t engine txid =
  match find_resident t txid with
  | None -> 0
  | Some entries ->
      Txid.Tbl.remove (tables t).resident txid;
      let freed = List.fold_left (fun acc e -> acc + e.size) 0 entries in
      release_space t engine freed;
      List.length entries
