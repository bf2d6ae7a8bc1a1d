open Farm_sim


(* The FaRM commit protocol (§4, Figure 4):

     1. LOCK            one-sided log write to each written-object primary
     2. VALIDATE        one-sided version reads (RPC above the tr threshold)
     3. COMMIT-BACKUP   one-sided log write to each backup; wait NIC acks
     4. COMMIT-PRIMARY  one-sided log write; report after >= 1 ack
     5. TRUNCATE        lazy, piggybacked on later records

   The coordinator is unreplicated and talks directly to primaries and
   backups. Before starting, it reserves log space for every record the
   protocol can write — including truncations — to guarantee progress.

   Each phase's one-sided writes go out as a single doorbell-batched verb
   group (Fabric.one_sided_write_batch via Logio.append_prepared): the
   NIC is rung once per phase and the completions reaped together, so a
   multi-participant commit pays ~one issue/poll instead of one per
   participant.

   Allocation discipline (DESIGN.md): the per-commit scratch — the write
   items staged in address order, region-id sets, per-destination
   groupings, reservation accounting and the append staging — lives in
   flat vectors of an Arena that each commit creates for itself. The
   COMMIT-PRIMARY bookkeeping and the lazy TRUNCATE run in background
   processes that touch the accounting after [commit] has returned; they
   close over the arena, and the GC reclaims it once they finish. Data
   that crosses the wire is never staged in the arena: write-item
   records, record payloads, and one regions-written list shared by every
   LOCK and COMMIT-BACKUP payload of the transaction are allocated for
   it, because receivers keep all of these resident until truncation and
   recovery reads them back.

   A configuration change can make the transaction "recovering" (§5.3);
   from that point the coordinator must ignore completions and defer to the
   recovery protocol's vote/decide outcome, which arrives on
   [lt_outcome]. *)

type 'a race = Normal of 'a | Recovered of State.outcome

let race_outcome (lt : State.tx_live) (iv : 'a Ivar.t) : 'a race =
  Proc.suspend (fun resume ->
      Ivar.on_fill iv (fun v -> resume (Ok (Normal v)));
      Ivar.on_fill lt.State.lt_outcome (fun o -> resume (Ok (Recovered o))))

(* {1 Read validation (§4 step 2)} *)

(* Target-side memory access of a header read: what the remote NIC DMAs at
   the linearization instant. [key] is the packed address. *)
let read_remote_header st ~dst ~key =
  match State.peer st dst with
  | None -> None
  | Some pst -> (
      match State.replica pst (Addr.packed_region key) with
      | Some rep when rep.State.role = State.Primary && rep.State.active ->
          Some (Objmem.header rep ~off:(Addr.packed_offset key))
      | _ -> None)

(* One-sided read of just an object header from its primary. *)
let read_header_at ?span st ~dst ~key =
  if dst = st.State.id then begin
    Cpu.exec st.State.cpu ~cost:Params.cpu_local_read;
    match State.replica st (Addr.packed_region key) with
    | Some rep when rep.State.role = State.Primary && rep.State.active ->
        Ok (Some (Objmem.header rep ~off:(Addr.packed_offset key)))
    | _ -> Ok None
  end
  else
    Farm_net.Fabric.one_sided_read ?span st.State.fabric ~src:st.State.id ~dst ~bytes:16
      (fun () -> read_remote_header st ~dst ~key)

(* Validate the read set staged in the arena's [ro_key]/[ro_ver] vectors:
   group read-set indices by primary (counted groups, so the
   RPC-vs-one-sided decision against tr is O(1) per group); use one-sided
   RDMA version reads for small groups — issued as one doorbell batch
   spanning every such group — and one RPC above the
   [validate_rpc_threshold] (tr) to trade latency for CPU. *)
let validate_ar ?span st (ar : Arena.t) ~txid =
  let vgroups : int Arena.groups = Arena.Vec.create () in
  let ok = ref true in
  for i = 0 to Arena.Vec.length ar.Arena.ro_key - 1 do
    match State.region_info st (Addr.packed_region (Arena.Vec.get ar.Arena.ro_key i)) with
    | Some info -> Arena.group_add vgroups ~dst:info.Wire.primary i
    | None -> ok := false
  done;
  if not !ok then false
  else begin
    let tr = st.State.params.Params.validate_rpc_threshold in
    let check_header version = function
      | Some h -> if Obj_layout.is_locked h || Obj_layout.version h <> version then ok := false
      | None -> ok := false
    in
    (* One header-read batch across ALL small groups (local items are read
       directly, no NIC involved). [span] flows down only when this runs in
       the calling process itself — a par_iter child's time is not the
       transaction's to claim. *)
    let run_rdma_batched ?span () =
      let rv_dst = Arena.Vec.create () and rv_idx = Arena.Vec.create () in
      for gi = 0 to Arena.Vec.length vgroups - 1 do
        let g = Arena.Vec.get vgroups gi in
        if Arena.Vec.length g.Arena.g_items <= tr then
          Arena.Vec.iter
            (fun i ->
              if g.Arena.g_dst = st.State.id then begin
                let key = Arena.Vec.get ar.Arena.ro_key i in
                match read_header_at ?span st ~dst:g.Arena.g_dst ~key with
                | Ok h -> check_header (Arena.Vec.get ar.Arena.ro_ver i) h
                | Error _ -> ok := false
              end
              else begin
                Arena.Vec.push rv_dst g.Arena.g_dst;
                Arena.Vec.push rv_idx i
              end)
            g.Arena.g_items
      done;
      let n = Arena.Vec.length rv_dst in
      if n > 0 then begin
        let results =
          Farm_net.Fabric.one_sided_read_batch ?span st.State.fabric ~src:st.State.id ~n
            ~dst:(fun i -> Arena.Vec.get rv_dst i)
            ~bytes:(fun _ -> 16)
            ~read:(fun i ->
              read_remote_header st
                ~dst:(Arena.Vec.get rv_dst i)
                ~key:(Arena.Vec.get ar.Arena.ro_key (Arena.Vec.get rv_idx i)))
        in
        for i = 0 to n - 1 do
          let version = Arena.Vec.get ar.Arena.ro_ver (Arena.Vec.get rv_idx i) in
          match results.(i) with
          | Ok h -> check_header version h
          | Error _ -> ok := false
        done
      end
    in
    (* RPC groups above tr are rare; their item lists are freshly built
       because a timed-out RPC can still be in flight when the caller
       resumes — arena-owned storage must never ride a message. *)
    let rpc_jobs =
      let jobs = ref [] in
      for gi = Arena.Vec.length vgroups - 1 downto 0 do
        let g = Arena.Vec.get vgroups gi in
        if Arena.Vec.length g.Arena.g_items > tr then begin
          let p = g.Arena.g_dst in
          let items =
            List.init (Arena.Vec.length g.Arena.g_items) (fun k ->
                let i = Arena.Vec.get g.Arena.g_items k in
                (Addr.unpack (Arena.Vec.get ar.Arena.ro_key i), Arena.Vec.get ar.Arena.ro_ver i))
          in
          jobs :=
            (fun () ->
              let flow =
                Farm_obs.Tracer.flow_id ~machine:txid.Txid.machine
                  ~thread:txid.Txid.thread ~local:txid.Txid.local ~tag:6 ~dst:p
              in
              match
                Comms.call st ~dst:p ~timeout:(Time.ms 20) ~flow
                  (Wire.Validate_req { txid; items })
              with
              | Ok (Wire.Validate_reply { ok = reply_ok; _ }) -> if not reply_ok then ok := false
              | Ok _ | Error _ -> ok := false)
            :: !jobs
        end
      done;
      !jobs
    in
    (match rpc_jobs with
    (* common case: every group under tr, one batch, no process spawns *)
    | [] -> run_rdma_batched ?span ()
    | jobs -> Comms.par_iter st ((fun () -> run_rdma_batched ()) :: jobs));
    !ok
  end

(* {1 The commit path} *)

(* A fresh arena with the read set not written staged in it: one merge
   walk over the two sets, both ascending by packed address. *)
let staged_arena (tx : Txn.t) =
  let ar = Arena.create () in
  let wi = ref 0 in
  for ri = 0 to tx.Txn.nreads - 1 do
    let key = tx.Txn.rkeys.(ri) in
    while !wi < tx.Txn.nwrites && tx.Txn.wkeys.(!wi) < key do
      incr wi
    done;
    if not (!wi < tx.Txn.nwrites && tx.Txn.wkeys.(!wi) = key) then begin
      Arena.Vec.push ar.Arena.ro_key key;
      Arena.Vec.push ar.Arena.ro_ver tx.Txn.rvers.(ri)
    end
  done;
  ar

let commit (tx : Txn.t) : (unit, Txn.abort_reason) result =
  let st = tx.Txn.st in
  if tx.Txn.finished then invalid_arg "Commit.commit: transaction already finished";
  tx.Txn.finished <- true;
  let commit_start = State.now st in
  (* protocol-level abort cause, set where the abort decision is made
     (lock refusal / validation failure); unset means finish derives it
     from the reason (Failed -> timeout) *)
  let abort_cause = ref None in
  (* runs exactly once on the main path *)
  let finish result =
    (match result with
    | Ok () ->
        State.record_commit st ~latency:(Time.sub (State.now st) commit_start);
        Farm_obs.Obs.Span.finish tx.Txn.span ~committed:true
    | Error e ->
        Farm_obs.Obs.Span.finish tx.Txn.span ~committed:false;
        State.record_abort ~reason:(Txn.reason_index e) ?cause:!abort_cause st);
    Txn.release_read_ts tx;
    result
  in
  if tx.Txn.nwrites = 0 then begin
    if tx.Txn.read_ts >= 0 then begin
      (* Snapshot protocol: every read was served at the transaction's
         read timestamp, so the whole read set is one consistent snapshot
         already — the transaction serializes there and commits locally,
         with zero VALIDATE messages and zero aborts (FaRMv2 opacity). *)
      Farm_obs.Obs.incr st.State.obs Farm_obs.Obs.C_ro_commit;
      finish (Ok ())
    end
    else if
      (* Baseline: serialization point is the last read; single-object
         reads are already atomic and need no validation. *)
      tx.Txn.nreads <= 1
    then finish (Ok ())
    else begin
      let ar = staged_arena tx in
      let txid = State.fresh_txid st ~thread:tx.Txn.thread in
      Farm_obs.Obs.Span.set_tx tx.Txn.span ~txm:txid.Txid.machine
        ~txt:txid.Txid.thread ~txl:txid.Txid.local;
      Farm_obs.Obs.Span.enter tx.Txn.span Farm_obs.Obs.P_validate;
      let ok = validate_ar ~span:tx.Txn.span st ar ~txid in
      State.forget_outstanding st txid;
      if not ok then begin
        abort_cause := Some State.Cause_validate;
        Arena.Vec.iter
          (fun key -> Farm_obs.Obs.heat_conflict st.State.obs ~region:(Addr.packed_region key))
          ar.Arena.ro_key
      end;
      finish (if ok then Ok () else Error Txn.Conflict)
    end
  end
  else begin
    let ar = staged_arena tx in
    let txid = State.fresh_txid st ~thread:tx.Txn.thread in
    Farm_obs.Obs.Span.set_tx tx.Txn.span ~txm:txid.Txid.machine ~txt:txid.Txid.thread
      ~txl:txid.Txid.local;
    (* Stage the write set in address order. The write-item records are
       wire-owned — LOCK and COMMIT-BACKUP receivers keep them resident
       until truncation — only the staging vector is scratch. *)
    for i = 0 to tx.Txn.nwrites - 1 do
      let addr = Addr.unpack tx.Txn.wkeys.(i) in
      Arena.Vec.push ar.Arena.items
        {
          Wire.addr;
          version = tx.Txn.wvers.(i);
          value = tx.Txn.wvals.(i);
          alloc_op = tx.Txn.wallocs.(i);
          ts = 0;  (* the write timestamp is chosen after the locks *)
        };
      Arena.Vec.push ar.Arena.wregions addr.Addr.region
    done;
    Arena.sort_uniq_ints ar.Arena.wregions;
    (* every written region heats up once per commit attempt *)
    Arena.Vec.iter
      (fun rid -> Farm_obs.Obs.heat_access st.State.obs ~region:rid)
      ar.Arena.wregions;
    (* ONE regions-written list per transaction, shared by every LOCK and
       COMMIT-BACKUP payload and by the live-tx record *)
    let regions_written = Arena.Vec.to_list ar.Arena.wregions in
    (* resolve mappings for every written region *)
    let missing = ref false in
    Arena.Vec.iter
      (fun rid ->
        match Txn.ensure_mapping st rid ~retries:5 with
        | Some info ->
            Arena.Vec.push ar.Arena.info_rid rid;
            Arena.Vec.push ar.Arena.infos info
        | None -> missing := true)
      ar.Arena.wregions;
    if !missing then begin
      State.forget_outstanding st txid;
      Txn.return_allocations tx;
      finish (Error Txn.Failed)
    end
    else begin
      let find_info rid =
        let rec go i =
          if Arena.Vec.get ar.Arena.info_rid i = rid then Arena.Vec.get ar.Arena.infos i
          else go (i + 1)
        in
        go 0
      in
      Arena.Vec.iter
        (fun (w : Wire.write_item) ->
          let info = find_info w.Wire.addr.Addr.region in
          Arena.group_add ar.Arena.primaries ~dst:info.Wire.primary w;
          List.iter (fun b -> Arena.group_add ar.Arena.backups ~dst:b w) info.Wire.backups)
        ar.Arena.items;
      Arena.Vec.iter
        (fun key -> Arena.Vec.push ar.Arena.rregions (Addr.packed_region key))
        ar.Arena.ro_key;
      Arena.sort_uniq_ints ar.Arena.rregions;
      let lt =
        {
          State.lt_txid = txid;
          lt_written_regions = regions_written;
          lt_read_regions = Arena.Vec.to_list ar.Arena.rregions;
          lt_outcome = Ivar.create ();
          lt_recovering = false;
          lt_born = State.now st;
        }
      in
      Txid.Tbl.replace st.State.active_txs txid lt;
      (* {2 Reservations}: space for every record of the protocol plus the
         truncation allowance, at every participant (§4) — sized without
         building any payload. *)
      let nregions = Arena.Vec.length ar.Arena.wregions in
      let group_writes_bytes (g : Wire.write_item Arena.group) =
        Arena.Vec.fold (fun acc w -> acc + Wire.write_item_bytes w) 0 g.Arena.g_items
      in
      let reserve_for dst n =
        (* log-ring wait: time spent flushing/retrying because the remote
           ring is full is its own blame category, not execute CPU *)
        let t0 = Time.to_ns (State.now st) in
        Logio.reserve_or_flush st ~dst n;
        Farm_obs.Obs.Span.claim tx.Txn.span Farm_obs.Obs.B_logring_wait
          (Time.to_ns (State.now st) - t0);
        let a = Arena.acct_for ar.Arena.acct dst in
        a.Arena.a_reserved <- a.Arena.a_reserved + n
      in
      for gi = 0 to Arena.Vec.length ar.Arena.primaries - 1 do
        let g = Arena.Vec.get ar.Arena.primaries gi in
        reserve_for g.Arena.g_dst
          (Wire.lock_record_base_bytes ~nregions ~writes_bytes:(group_writes_bytes g)
          + Wire.ctl_record_base_bytes (* COMMIT-PRIMARY *)
          + Logio.trunc_allowance)
      done;
      for gi = 0 to Arena.Vec.length ar.Arena.backups - 1 do
        let g = Arena.Vec.get ar.Arena.backups gi in
        reserve_for g.Arena.g_dst
          (Wire.lock_record_base_bytes ~nregions ~writes_bytes:(group_writes_bytes g)
          + Logio.trunc_allowance)
      done;
      (* deterministic participant order for truncation and leftovers *)
      Arena.accts_sort ar.Arena.acct;
      let release_leftovers () =
        Arena.Vec.iter
          (fun a ->
            let allowance = if a.Arena.a_trunc_queued then Logio.trunc_allowance else 0 in
            let leftover = a.Arena.a_reserved - a.Arena.a_consumed - allowance in
            if leftover > 0 then Ringlog.unreserve (State.log_to st a.Arena.a_dst) leftover)
          ar.Arena.acct
      in
      let cleanup () =
        Txid.Tbl.remove st.State.active_txs txid;
        Txid.Tbl.remove st.State.pending_lock txid;
        release_leftovers ()
      in
      let recovered_result (o : State.outcome) =
        (* recovery owns truncation (TRUNCATE-RECOVERY) and the books *)
        Txid.Tbl.remove st.State.active_txs txid;
        Txid.Tbl.remove st.State.pending_lock txid;
        State.forget_outstanding st txid;
        match o with
        | State.Committed -> finish (Ok ())
        | State.Aborted ->
            Txn.return_allocations tx;
            finish (Error Txn.Failed)
      in
      (* A failed log append means the reliable channel to that machine is
         broken — the NIC gave up retransmitting — so the machine is
         suspect. Reporting it (precise membership, §3) starts the
         reconfiguration whose transaction recovery then resolves this
         transaction; without the report a transient partition could leave
         the coordinator waiting for a configuration change that never
         comes, its locks held forever. *)
      let suspect_append_failure m = st.State.on_suspect [ m ] in
      (* Stage one record per destination into the arena's append scratch
         and write them as a single doorbell-batched group, then settle the
         books: consumed space on success, suspicion on failure. Returns
         whether every record was acked. *)
      let append_group ?span ?on_complete (groups : Wire.write_item Arena.groups) payload_of =
        Arena.Vec.clear ar.Arena.ap_dst;
        Arena.Vec.clear ar.Arena.ap_pay;
        for gi = 0 to Arena.Vec.length groups - 1 do
          let g = Arena.Vec.get groups gi in
          Arena.Vec.push ar.Arena.ap_dst g.Arena.g_dst;
          Arena.Vec.push ar.Arena.ap_pay (payload_of g)
        done;
        let n = Arena.Vec.length ar.Arena.ap_dst in
        let results =
          Logio.append_prepared ?span ?on_complete st ~thread:tx.Txn.thread ~n
            ~dst:(fun i -> Arena.Vec.get ar.Arena.ap_dst i)
            ~payload:(fun i -> Arena.Vec.get ar.Arena.ap_pay i)
        in
        let all_ok = ref true in
        for i = 0 to n - 1 do
          let dst = Arena.Vec.get ar.Arena.ap_dst i in
          match results.(i) with
          | Ok b ->
              let a = Arena.acct_for ar.Arena.acct dst in
              a.Arena.a_consumed <- a.Arena.a_consumed + b
          | Error _ ->
              all_ok := false;
              suspect_append_failure dst
        done;
        !all_ok
      in
      (* Wire payloads: write lists are fresh per destination (receivers
         retain them); a control record is immutable, so one COMMIT-PRIMARY
         value serves every destination. *)
      let lock_payload_of (g : Wire.write_item Arena.group) =
        Wire.Lock { txid; regions_written; writes = Arena.Vec.to_list g.Arena.g_items }
      in
      (* Snapshot protocol: the write timestamp, chosen once every lock is
         granted — above this clock's upper bound, above every locked
         object's head timestamp (from the LOCK replies), and above the
         transaction's own read timestamp. 0 in the baseline. *)
      let w_ts = ref 0 in
      (* COMMIT-BACKUP items carry the write timestamp the LOCK items could
         not know yet; the lists are fresh per destination anyway. *)
      let commit_backup_payload_of (g : Wire.write_item Arena.group) =
        let writes = Arena.Vec.to_list g.Arena.g_items in
        let writes =
          if !w_ts = 0 then writes
          else List.map (fun (w : Wire.write_item) -> { w with Wire.ts = !w_ts }) writes
        in
        Wire.Commit_backup { txid; regions_written; writes }
      in
      (* A failed log append reports a suspicion and assumes the resulting
         configuration change makes this transaction recovering (§5.3). That
         is not guaranteed: the suspect can heal before eviction, or an
         unrelated reconfiguration can win the race without changing any
         written region's replica set — then no drain ever classifies the
         transaction, nobody decides it, and its locks leak. But this
         coordinator is alive and owns the transaction until it fails, so it
         can decide the outcome itself — abort while the commit point is
         still ahead, commit once every COMMIT-BACKUP record is acked — and
         hand the decision to the recovery push, which retries COMMIT/
         ABORT-RECOVERY against every written region's replicas (re-resolving
         the mapping each round) until the locks are released everywhere.
         Vote collection is wrong here: pre-drain votes come from the
         primaries' resident logs alone, which cannot see COMMIT-BACKUP
         records held by backups. *)
      let recover_deciding outcome =
        lt.State.lt_recovering <- true;
        Recovery.coordinator_decide st txid ~regions:lt.State.lt_written_regions
          outcome
      in
      (* Abort: write ABORT records to the primaries, which release the
         locks and locally truncate the transaction. *)
      let abort_tx ~cause reason =
        abort_cause := Some cause;
        (* conflict heat lands on the regions the loser was contending for:
           its write set when a lock was refused, its read set when
           validation caught a concurrent writer *)
        (match cause with
        | State.Cause_lock ->
            Arena.Vec.iter
              (fun rid -> Farm_obs.Obs.heat_conflict st.State.obs ~region:rid)
              ar.Arena.wregions
        | State.Cause_validate ->
            Arena.Vec.iter
              (fun rid -> Farm_obs.Obs.heat_conflict st.State.obs ~region:rid)
              ar.Arena.rregions
        | _ -> ());
        let abort_record = Wire.Abort txid in
        if not (append_group ~span:tx.Txn.span ar.Arena.primaries (fun _ -> abort_record)) then
          (* an unreachable primary keeps its locks until the decision
             reaches it — make sure there is a decision *)
          recover_deciding State.Aborted;
        State.forget_outstanding st txid;
        Txn.return_allocations tx;
        cleanup ();
        finish (Error reason)
      in
      (* {2 Phase 1: LOCK} — one batched write group to all primaries. *)
      State.phase st State.Before_lock txid;
      Farm_obs.Obs.Span.enter tx.Txn.span Farm_obs.Obs.P_lock;
      let lw =
        {
          State.lw_awaiting = Arena.Vec.length ar.Arena.primaries;
          lw_ok = true;
          lw_done = Ivar.create ();
          lw_max_ts = 0;
        }
      in
      Txid.Tbl.replace st.State.pending_lock txid lw;
      if not (append_group ~span:tx.Txn.span ar.Arena.primaries lock_payload_of) then
        (* an unreachable primary never replies, so [lw_done] may never
           fill — and since some locks may already be granted, abort: the
           decision fills [lt_outcome] and its push releases them *)
        recover_deciding State.Aborted;
      match race_outcome lt lw.State.lw_done with
      | Recovered o -> recovered_result o
      | Normal () ->
          if not lw.State.lw_ok then abort_tx ~cause:State.Cause_lock Txn.Conflict
          else begin
            if tx.Txn.read_ts >= 0 then
              w_ts :=
                max
                  (Clock.hi st.State.clock + 1)
                  (max (lw.State.lw_max_ts + 1) (tx.Txn.read_ts + 1));
            State.phase st State.After_lock txid;
            Farm_obs.Obs.Span.enter tx.Txn.span Farm_obs.Obs.P_validate;
            (* {2 Phase 2: VALIDATE} — one batched header read across all
               groups below tr, one RPC per group above it. *)
            let validated =
              Arena.Vec.length ar.Arena.ro_key = 0
              || validate_ar ~span:tx.Txn.span st ar ~txid
            in
            if lt.State.lt_recovering then recovered_result (Ivar.read lt.State.lt_outcome)
            else if not validated then abort_tx ~cause:State.Cause_validate Txn.Conflict
            else begin
              State.phase st State.After_validate txid;
              Farm_obs.Obs.Span.enter tx.Txn.span Farm_obs.Obs.P_commit_backup;
              (* {2 Phase 3: COMMIT-BACKUP} — one batched write group; wait
                 for NIC acks from all backups before any COMMIT-PRIMARY
                 (required for serializability across failures, §4). *)
              let backups_ok =
                append_group ~span:tx.Txn.span ar.Arena.backups commit_backup_payload_of
              in
              if lt.State.lt_recovering then recovered_result (Ivar.read lt.State.lt_outcome)
              else if not backups_ok then begin
                (* a backup is gone, with COMMIT-BACKUP records at the
                   surviving ones: neither outcome is decidable here (§5.3
                   commits on the surviving records once the failed backup is
                   evicted). Park until a decision fills [lt_outcome]: the
                   eviction-triggered drain supplies it with full evidence,
                   and if the partition heals without a replica-set change
                   the park watchdog aborts instead *)
                recovered_result (Ivar.read lt.State.lt_outcome)
              end
              else begin
                State.phase st State.After_commit_backup txid;
                Farm_obs.Obs.Span.enter tx.Txn.span Farm_obs.Obs.P_commit_primary;
                (* {2 Phase 4: COMMIT-PRIMARY} — one batched write group
                   with first-ack semantics: report success on the first
                   hardware ack, delivered by the batch's per-op completion
                   hook; the group's bookkeeping finishes in the
                   background. *)
                let first_ack = Ivar.create () in
                let all_acks = Ivar.create () in
                let commit_primary = Wire.Commit_primary { txid; ts = !w_ts } in
                Proc.spawn ~ctx:st.State.ctx st.State.engine (fun () ->
                    (* no [span] here: this append races the main path's
                       first-ack wait in a background process, and the span
                       may already be finished when it completes — the
                       coordinator's wait is the P_commit_primary segment's
                       default (propagation) *)
                    let ok =
                      append_group
                        ~on_complete:(fun _ r ->
                          match r with
                          | Ok () -> Ivar.fill_if_empty first_ack ()
                          | Error _ -> ())
                        ar.Arena.primaries
                        (fun _ -> commit_primary)
                    in
                    (* if every append failed, [first_ack] never fills and
                       the commit parks; on partial failure the unreachable
                       primary keeps its locks. Either way the outcome is
                       already fixed — every COMMIT-BACKUP record was acked,
                       the commit point is behind us — so decide commit and
                       let the push apply it at the unreachable primaries *)
                    if not ok then recover_deciding State.Committed;
                    Ivar.fill all_acks ());
                match race_outcome lt first_ack with
                | Recovered o -> recovered_result o
                | Normal () ->
                    State.phase st State.After_commit_primary txid;
                    (* {2 Commit wait (snapshot protocol)} — before the
                       commit is reported, wait until every machine's clock
                       lower bound has passed the write timestamp: any
                       transaction that begins after the report draws a
                       read timestamp above it (strict serializability,
                       FaRMv2 §3). Readers meanwhile wait on the object
                       locks, so no one observes the write early. *)
                    if !w_ts > 0 then begin
                      Farm_obs.Obs.Span.enter tx.Txn.span Farm_obs.Obs.P_commit_wait;
                      Clock.commit_wait st.State.clock ~ts:!w_ts
                    end;
                    (* {2 Phase 5: TRUNCATE} — lazily, after all primaries
                       acked, in the background. The segment is timed from
                       the report instant and recorded after the span has
                       finished: the span ends when the application is told
                       the commit succeeded. *)
                    let report_at = Time.to_ns (State.now st) in
                    Proc.spawn ~ctx:st.State.ctx st.State.engine (fun () ->
                        match race_outcome lt all_acks with
                        | Recovered _ ->
                            Txid.Tbl.remove st.State.active_txs txid;
                            State.forget_outstanding st txid
                        | Normal () ->
                            Arena.Vec.iter
                              (fun a ->
                                State.queue_truncation st ~dst:a.Arena.a_dst txid;
                                a.Arena.a_trunc_queued <- true)
                              ar.Arena.acct;
                            State.forget_outstanding st txid;
                            cleanup ();
                            State.phase st State.After_truncate txid;
                            Farm_obs.Obs.Span.late_segment tx.Txn.span
                              Farm_obs.Obs.P_truncate ~start:report_at);
                    finish (Ok ())
              end
            end
          end
    end
  end
