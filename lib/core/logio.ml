open Farm_sim

(* Sender-side transaction-log writes (§4).

   Records are written to the receiver-located ring log with one-sided RDMA
   writes. Coordinators reserve space for all records of the commit
   protocol — including truncation entries — before starting to commit, so
   the protocol can always make progress; piggybacked truncations release
   the space of completed transactions lazily. *)

(* Per-transaction reservation allowance for its eventual truncation entry:
   16 bytes for the piggybacked id plus 8 bytes of marker slack. *)
let trunc_allowance = 24

(* Trace slice for one acked log write, on the issuing worker's track,
   carrying the outgoing flow that its remote processing will close. *)
let trace_append st ~thread ~dst ~t0 payload =
  let tracer = Farm_obs.Obs.tracer st.State.obs in
  if Farm_obs.Tracer.enabled tracer then
    let txm, txt, txl, flow_out =
      match Wire.payload_txid payload with
      | None -> (-1, 0, 0, 0)
      | Some (id : Txid.t) ->
          (id.Txid.machine, id.Txid.thread, id.Txid.local, Wire.record_flow payload ~dst)
    in
    Farm_obs.Tracer.slice tracer ~tid:thread
      ~label:Farm_obs.Obs.(point_label P_log_append)
      ~start:t0 ~arg:dst ~txm ~txt ~txl ~flow_in:0 ~flow_out

(* Build the record around [payload], draining this machine's pending
   truncations for [dst] into its piggyback fields. Consumes reservation for
   the full record and releases the slack of each piggybacked truncation
   allowance. Counts the record in [log_writes] until [settle]. Returns
   the record alone: a size tuple would be one more allocation per record
   on the commit path. *)
let prepare st ~thread ~dst payload =
  st.State.log_writes <- st.State.log_writes + 1;
  let truncations = State.take_truncations st ~dst in
  let record =
    {
      Wire.payload;
      truncations;
      low_bound = State.low_bound st ~thread;
      cfg = st.State.config.Config.id;
    }
  in
  let log = State.log_to st dst in
  Ringlog.consume_reservation log (Wire.record_bytes record);
  Ringlog.unreserve log (8 * List.length truncations);
  record

(* Account for a prepared record's write once its result is known. On
   success, the caller's own share of the consumed space: piggybacked
   truncation entries are paid for by the truncated transactions'
   allowances. On failure the destination is gone; the truncations are
   requeued so another record (or the flusher) carries them once the
   configuration settles. *)
let settle st ~dst ~size (record : Wire.log_record) r =
  st.State.log_writes <- st.State.log_writes - 1;
  match r with
  | Ok () ->
      Farm_obs.Obs.event st.State.obs Farm_obs.Obs.K_log_append ~a:dst ~b:size
        ~c:(Ringlog.used (State.log_to st dst));
      Ok (size - (16 * List.length record.Wire.truncations))
  | Error e ->
      Farm_obs.Obs.event st.State.obs Farm_obs.Obs.K_log_append_fail ~a:dst ~b:size ~c:0;
      List.iter (fun txid -> State.queue_truncation st ~dst txid) record.Wire.truncations;
      Error e

(* Append one record to [dst] with a single full-cost one-sided write. *)
let append st ~dst ~thread payload : (int, Farm_net.Fabric.error) result =
  let record = prepare st ~thread ~dst payload in
  let size = Wire.record_bytes record in
  let log = State.log_to st dst in
  let t0 = Time.to_ns (Engine.now st.State.engine) in
  let r =
    settle st ~dst ~size record
      (Farm_net.Fabric.one_sided_write st.State.fabric ~src:st.State.id ~dst ~bytes:size
         (fun () -> Ringlog.dma_append log record ~size))
  in
  (match r with Ok _ -> trace_append st ~thread ~dst ~t0 payload | Error _ -> ());
  r

(* Append one record per destination as a single doorbell-batched verb
   group: every record is prepared first (reservations consumed, piggyback
   slack released), then all writes go out with one issue + per-op
   doorbells and one completion reap, and each result is settled.
   [on_complete i r] fires at record [i]'s individual hardware-ack (or
   failure) instant — COMMIT-PRIMARY's first-ack hook.

   The batch is described by indexed accessors rather than a list so the
   commit path can stage it in its arena: [dst i] / [payload i] for
   [0 <= i < n]. *)
let append_prepared ?span ?on_complete st ~thread ~n ~(dst : int -> int)
    ~(payload : int -> Wire.record) : (int, Farm_net.Fabric.error) result array =
  let recs = Array.init n (fun i -> prepare st ~thread ~dst:(dst i) (payload i)) in
  let sizes = Array.map Wire.record_bytes recs in
  let t0 = Time.to_ns (Engine.now st.State.engine) in
  (* Per-op trace slices are emitted from the completion hook so each one
     ends at its own hardware-ack instant, not at the batch-wide reap. *)
  let on_complete i r =
    (match r with
    | Ok () -> trace_append st ~thread ~dst:(dst i) ~t0 recs.(i).Wire.payload
    | Error _ -> ());
    match on_complete with Some f -> f i r | None -> ()
  in
  let results =
    Farm_net.Fabric.one_sided_write_batch ?span ~on_complete st.State.fabric ~src:st.State.id
      ~n ~dst
      ~bytes:(fun i -> sizes.(i))
      ~apply:(fun i -> Ringlog.dma_append (State.log_to st (dst i)) recs.(i) ~size:sizes.(i))
  in
  Array.mapi (fun i r -> settle st ~dst:(dst i) ~size:sizes.(i) recs.(i) r) results

(* Write an explicit TRUNCATE record carrying the pending truncations for
   [dst]. Used by the background flusher and when a log fills up. *)
let flush_truncations st ~dst =
  match Int_tbl.find_opt st.State.pending_trunc dst with
  | None -> ()
  | Some q when !q = [] -> ()
  | Some _ ->
      if Config.is_member st.State.config dst || dst = st.State.id then begin
        let log = State.log_to st dst in
        (* The marker base is transient (freed as soon as it is processed);
           take it from fresh reservation, skipping this round if full. *)
        if Ringlog.reserve log 48 then begin
          match append st ~dst ~thread:0 Wire.Truncate_marker with
          | Ok _ -> Ringlog.unreserve log 48
          | Error _ -> Ringlog.unreserve log 48
        end
      end
      else ignore (State.take_truncations st ~dst)

(* Reserve [n] bytes in the log to [dst], forcing explicit truncation if the
   log is full (rare; needed for liveness, §4). *)
let rec reserve_or_flush st ~dst n =
  let log = State.log_to st dst in
  if Ringlog.reserve log n then ()
  else begin
    flush_truncations st ~dst;
    Proc.sleep (Time.us 50);
    Proc.check_cancelled ();
    reserve_or_flush st ~dst n
  end

(* Periodic background flusher: lazily truncates logs at primaries and
   backups that have not carried piggybacked truncations recently. *)
let start_flusher st =
  Proc.spawn ~ctx:st.State.ctx st.State.engine (fun () ->
      let rec loop () =
        Proc.sleep Params.truncate_flush_interval;
        Proc.check_cancelled ();
        let dsts =
          Int_tbl.fold (fun d q acc -> if !q = [] then acc else d :: acc) st.State.pending_trunc []
        in
        List.iter (fun dst -> flush_truncations st ~dst) dsts;
        loop ()
      in
      loop ())
