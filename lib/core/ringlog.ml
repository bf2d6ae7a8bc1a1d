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
   transactions, when discarded after processing). The receiver keeps one
   entry per transaction that has records in the log: the count of its
   unprocessed records and the list of its processed, resident ones. An
   unprocessed entry itself is held only by the receiver's processing
   trigger.

   The receiver's table is created at the log's first record, at the
   minimum size: a fleet of n machines has n^2 logs, most of them holding
   a few transactions at a time, and a log that never receives a record
   costs no table.

   Record processing is not serialized per log: the commit protocol itself
   orders the records that must be ordered (a COMMIT-PRIMARY is only
   written after the LOCK reply, so a transaction's LOCK is always fully
   processed before its later records arrive). The one cross-record hazard
   — a truncation overtaking the processing of the records it truncates —
   is handled by the receiver deferring truncations while the transaction
   still has unprocessed entries (see [pending_count]). *)

type entry = { size : int; record : Wire.log_record }

(* The receiver's state of one transaction; dropped once both parts are
   empty. *)
type tx = {
  mutable unprocessed : int;  (* DMA'd records not yet processed *)
  mutable resident : entry list;  (* processed, newest first; awaiting truncation *)
  mutable since : int;  (* [clock] when [resident] last became non-empty *)
}

(* Recovery walks the resident transactions in the order a stdlib table
   created with 64 buckets would, under the same insertions and removals
   (the determinism contract: every recovery output depends on it). That
   order is recomputed when walking, from the two things it depends on:
   the bucket count, which starts at 64 and doubles when the number of
   resident transactions passes twice it, as the stdlib resizes (it never
   shrinks); and, within a bucket, insertion time, newest first, since
   the stdlib inserts at the head and its resize keeps each chain's
   order. *)
type rx = {
  txs : tx Txid.Tbl.t;
  mutable n_resident : int;  (* transactions with resident records *)
  mutable buckets : int;  (* the bucket count that table would have now *)
  mutable clock : int;
}

type t = {
  sender : int;
  receiver : int;
  capacity : int;
  mutable rx : rx option;  (* None until the first record *)
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
    rx = None;
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

let rx_of t =
  match t.rx with
  | Some rx -> rx
  | None ->
      let rx = { txs = Txid.Tbl.create 1; n_resident = 0; buckets = 64; clock = 0 } in
      t.rx <- Some rx;
      rx

let tx_of rx txid =
  match Txid.Tbl.find_opt rx.txs txid with
  | Some x -> x
  | None ->
      let x = { unprocessed = 0; resident = []; since = 0 } in
      Txid.Tbl.replace rx.txs txid x;
      x

let drop_if_empty rx txid = function
  | { unprocessed = 0; resident = []; _ } -> Txid.Tbl.remove rx.txs txid
  | _ -> ()

let find t txid = match t.rx with None -> None | Some rx -> Txid.Tbl.find_opt rx.txs txid

(* The NIC accepts the write regardless of configuration; the sender
   reserved the space, so the ring never overflows. *)
let dma_append t record ~size =
  let e = { size; record } in
  let rx = rx_of t in
  t.used <- t.used + size;
  (match txid_of_record record with
  | Some txid ->
      let x = tx_of rx txid in
      x.unprocessed <- x.unprocessed + 1
  | None -> ());
  t.on_append t e

(* {1 Receiver side} *)

let pending_count t txid = match find t txid with Some x -> x.unprocessed | None -> 0

let processed x = if x.unprocessed > 0 then x.unprocessed <- x.unprocessed - 1

(* After the receiver CPU processes an entry it stays resident so that
   recovery can re-examine it until the coordinator truncates the
   transaction. *)
let retain t (e : entry) =
  match txid_of_record e.record with
  | Some txid ->
      let rx = rx_of t in
      let x = tx_of rx txid in
      processed x;
      if x.resident == [] then begin
        x.since <- rx.clock;
        rx.clock <- rx.clock + 1;
        rx.n_resident <- rx.n_resident + 1;
        if rx.n_resident > 2 * rx.buckets then rx.buckets <- 2 * rx.buckets
      end;
      x.resident <- e :: x.resident
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
  (match (t.rx, txid_of_record e.record) with
  | Some rx, Some txid -> (
      match Txid.Tbl.find_opt rx.txs txid with
      | Some x ->
          processed x;
          drop_if_empty rx txid x
      | None -> ())
  | _ -> ());
  release_space t engine e.size

let resident_records t txid =
  match find t txid with Some x -> List.map (fun e -> e.record) x.resident | None -> []

let iter_resident t fn =
  match t.rx with
  | None -> ()
  | Some rx ->
      let mask = rx.buckets - 1 in
      let key txid x = (Txid.hash txid land mask, -x.since) in
      Txid.Tbl.fold (fun txid x acc -> if x.resident == [] then acc else (key txid x, txid, x) :: acc) rx.txs []
      |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
      |> List.iter (fun (_, txid, x) -> fn txid (List.map (fun e -> e.record) x.resident))

(* Truncate a transaction: drop its resident records and free their space.
   The sender's head estimate is updated lazily. *)
let truncate t engine txid =
  match (t.rx, find t txid) with
  | Some rx, Some ({ resident = _ :: _ as entries; _ } as x) ->
      x.resident <- [];
      rx.n_resident <- rx.n_resident - 1;
      drop_if_empty rx txid x;
      let freed = List.fold_left (fun acc e -> acc + e.size) 0 entries in
      release_space t engine freed;
      List.length entries
  | _ -> 0
