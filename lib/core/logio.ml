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
    match Wire.payload_txid payload with
    | None ->
        Farm_obs.Tracer.slice tracer ~tid:thread ~step:Farm_obs.Tracer.T_log_append
          ~start:t0 ~arg:dst
    | Some (id : Txid.t) ->
        Farm_obs.Tracer.slice_flow tracer ~tid:thread ~step:Farm_obs.Tracer.T_log_append
          ~start:t0 ~arg:dst ~txm:id.Txid.machine ~txt:id.Txid.thread
          ~txl:id.Txid.local ~flow_in:0 ~flow_out:(Wire.record_flow payload ~dst)

(* Append a record, draining this machine's pending truncations for [dst]
   into its piggyback fields. Consumes reservation for the full record and
   releases the slack of each piggybacked truncation allowance. *)
let append st ~dst ~thread payload : (int, Farm_net.Fabric.error) result =
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
  let size = Wire.record_bytes record in
  Ringlog.consume_reservation log size;
  Ringlog.unreserve log (8 * List.length truncations);
  let t0 = Time.to_ns (Engine.now st.State.engine) in
  match
    Farm_net.Fabric.one_sided_write st.State.fabric ~src:st.State.id ~dst ~bytes:size (fun () ->
        Ringlog.dma_append log record ~size)
  with
  | Ok () ->
      Farm_obs.Obs.event st.State.obs Farm_obs.Obs.K_log_append ~a:dst ~b:size
        ~c:(Ringlog.used log);
      trace_append st ~thread ~dst ~t0 payload;
      (* The caller's own share of the consumed space: piggybacked
         truncation entries are paid for by the truncated transactions'
         allowances. *)
      Ok (size - (16 * List.length truncations))
  | Error e ->
      Farm_obs.Obs.event st.State.obs Farm_obs.Obs.K_log_append_fail ~a:dst ~b:size ~c:0;
      (* The destination is gone; requeue the truncations so another record
         (or the flusher) carries them once the configuration settles. *)
      List.iter (fun txid -> State.queue_truncation st ~dst txid) truncations;
      Error e

(* Append one record per destination as a single doorbell-batched verb
   group: pending truncations for every destination are drained under one
   preparation pass (reservations consumed, piggyback slack released), then
   all writes go out with one issue + per-op doorbells and one completion
   reap. [on_complete i r] fires at record [i]'s individual hardware-ack
   (or failure) instant — COMMIT-PRIMARY's first-ack hook.

   The batch is described by indexed accessors rather than a list so the
   commit path can stage it in its reused arena: [dst i] / [payload i] for
   [0 <= i < n].

   With [doorbell_batching] off this degrades to the pre-batching pipeline:
   one full-cost one-sided write per record, issued by parallel processes,
   each paying its own issue and poll — the ablation baseline. *)
let append_prepared ?span ?on_complete st ~thread ~n ~(dst : int -> int)
    ~(payload : int -> Wire.record) : (int, Farm_net.Fabric.error) result array =
  let sizes = Array.make (max n 1) 0 in
  let recs =
    Array.init n (fun i ->
        let d = dst i in
        let truncations = State.take_truncations st ~dst:d in
        let record =
          {
            Wire.payload = payload i;
            truncations;
            low_bound = State.low_bound st ~thread;
            cfg = st.State.config.Config.id;
          }
        in
        let log = State.log_to st d in
        let size = Wire.record_bytes record in
        sizes.(i) <- size;
        Ringlog.consume_reservation log size;
        Ringlog.unreserve log (8 * List.length truncations);
        record)
  in
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
    if st.State.params.Params.doorbell_batching then
      Farm_net.Fabric.one_sided_write_batch_fn ?span ~on_complete st.State.fabric
        ~src:st.State.id ~n ~dst
        ~bytes:(fun i -> sizes.(i))
        ~apply:(fun i ->
          Ringlog.dma_append (State.log_to st (dst i)) recs.(i) ~size:sizes.(i))
    else begin
      (* unbatched ablation: the writes run in spawned child processes, so
         their time is not this process's to claim — it falls to the
         enclosing phase's default category *)
      let results = Array.make n (Ok ()) in
      Comms.par_iter st
        (List.init n (fun i () ->
             let d = dst i in
             let size = sizes.(i) in
             let log = State.log_to st d in
             let r =
               Farm_net.Fabric.one_sided_write st.State.fabric ~src:st.State.id ~dst:d
                 ~bytes:size (fun () -> Ringlog.dma_append log recs.(i) ~size)
             in
             results.(i) <- r;
             on_complete i r));
      results
    end
  in
  Array.mapi
    (fun i r ->
      let d = dst i in
      let size = sizes.(i) in
      match r with
      | Ok () ->
          Farm_obs.Obs.event st.State.obs Farm_obs.Obs.K_log_append ~a:d ~b:size
            ~c:(Ringlog.used (State.log_to st d));
          Ok (size - (16 * List.length recs.(i).Wire.truncations))
      | Error e ->
          Farm_obs.Obs.event st.State.obs Farm_obs.Obs.K_log_append_fail ~a:d ~b:size
            ~c:0;
          List.iter (fun txid -> State.queue_truncation st ~dst:d txid) recs.(i).Wire.truncations;
          Error e)
    results

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
        Proc.sleep st.State.params.Params.truncate_flush_interval;
        Proc.check_cancelled ();
        let dsts =
          Int_tbl.fold (fun d q acc -> if !q = [] then acc else d :: acc) st.State.pending_trunc []
        in
        List.iter (fun dst -> flush_truncations st ~dst) dsts;
        loop ()
      in
      loop ())
