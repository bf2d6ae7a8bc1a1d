open Farm_sim

(* The observability spine. See the interface for the three hard rules
   (O(1) recording, near-zero cost disabled, determinism preserved); the
   implementation notes here cover how each is met.

   - Ring events are a constructor and four ints in a {!Ring} slot: no
     allocation on the hot path but the ring's doubling, rendering
     deferred to dump time. Only the rare cluster-log events allocate a
     record.
   - Counters are one flat int array indexed by the counter's declaration
     position.
   - Nothing below ever touches an Rng, schedules engine work, or blocks:
     the only engine interaction is reading the clock. *)

(* {1 Counters} *)

type counter =
  | C_rdma_read
  | C_rdma_write
  | C_rdma_batch
  | C_rpc_send
  | C_rpc_call
  | C_ud_send
  | C_ud_drop
  | C_rc_retransmit
  | C_log_append
  | C_log_append_fail
  | C_log_record
  | C_log_trunc
  | C_log_trunc_deferred
  | C_lock_ok
  | C_lock_fail
  | C_tx_commit
  | C_tx_abort
  | C_lease_renewal
  | C_lease_grant
  | C_lease_expiry
  | C_suspect
  | C_reconfig
  | C_rec_vote
  | C_rec_decide
  | C_abort_lock_refused
  | C_abort_validate_failed
  | C_abort_timeout
  | C_snap_read
  | C_snap_chain_read
  | C_ro_commit
  | C_wm_trim

let all_counters =
  [
    C_rdma_read; C_rdma_write; C_rdma_batch; C_rpc_send; C_rpc_call; C_ud_send;
    C_ud_drop; C_rc_retransmit; C_log_append; C_log_append_fail; C_log_record;
    C_log_trunc; C_log_trunc_deferred; C_lock_ok; C_lock_fail; C_tx_commit;
    C_tx_abort; C_lease_renewal; C_lease_grant; C_lease_expiry; C_suspect;
    C_reconfig; C_rec_vote; C_rec_decide; C_abort_lock_refused;
    C_abort_validate_failed; C_abort_timeout; C_snap_read; C_snap_chain_read;
    C_ro_commit; C_wm_trim;
  ]

let n_counters = List.length all_counters

let counter_index = function
  | C_rdma_read -> 0
  | C_rdma_write -> 1
  | C_rdma_batch -> 2
  | C_rpc_send -> 3
  | C_rpc_call -> 4
  | C_ud_send -> 5
  | C_ud_drop -> 6
  | C_rc_retransmit -> 7
  | C_log_append -> 8
  | C_log_append_fail -> 9
  | C_log_record -> 10
  | C_log_trunc -> 11
  | C_log_trunc_deferred -> 12
  | C_lock_ok -> 13
  | C_lock_fail -> 14
  | C_tx_commit -> 15
  | C_tx_abort -> 16
  | C_lease_renewal -> 17
  | C_lease_grant -> 18
  | C_lease_expiry -> 19
  | C_suspect -> 20
  | C_reconfig -> 21
  | C_rec_vote -> 22
  | C_rec_decide -> 23
  | C_abort_lock_refused -> 24
  | C_abort_validate_failed -> 25
  | C_abort_timeout -> 26
  | C_snap_read -> 27
  | C_snap_chain_read -> 28
  | C_ro_commit -> 29
  | C_wm_trim -> 30

let counter_name = function
  | C_rdma_read -> "rdma-read"
  | C_rdma_write -> "rdma-write"
  | C_rdma_batch -> "rdma-batch"
  | C_rpc_send -> "rpc-send"
  | C_rpc_call -> "rpc-call"
  | C_ud_send -> "ud-send"
  | C_ud_drop -> "ud-drop"
  | C_rc_retransmit -> "rc-retransmit"
  | C_log_append -> "log-append"
  | C_log_append_fail -> "log-append-fail"
  | C_log_record -> "log-record"
  | C_log_trunc -> "log-trunc"
  | C_log_trunc_deferred -> "log-trunc-deferred"
  | C_lock_ok -> "lock-ok"
  | C_lock_fail -> "lock-fail"
  | C_tx_commit -> "tx-commit"
  | C_tx_abort -> "tx-abort"
  | C_lease_renewal -> "lease-renewal"
  | C_lease_grant -> "lease-grant"
  | C_lease_expiry -> "lease-expiry"
  | C_suspect -> "suspect"
  | C_reconfig -> "reconfig"
  | C_rec_vote -> "rec-vote"
  | C_rec_decide -> "rec-decide"
  | C_abort_lock_refused -> "abort-lock-refused"
  | C_abort_validate_failed -> "abort-validate-failed"
  | C_abort_timeout -> "abort-timeout"
  | C_snap_read -> "snap-read"
  | C_snap_chain_read -> "snap-chain-read"
  | C_ro_commit -> "ro-commit"
  | C_wm_trim -> "wm-trim"

(* {1 Protocol points}

   One constructor per timed, traced or hooked step. The commit phases come
   first, so their indices (0-6) also index a span's segment arrays;
   [P_commit_wait] sits last among them so the established phase indices
   stay stable. *)

type point =
  | P_execute
  | P_lock
  | P_validate
  | P_commit_backup
  | P_commit_primary
  | P_truncate
  | P_commit_wait
  | P_log_append
  | P_log_process
  | P_lock_grant
  | P_lock_refuse
  | P_drain
  | P_region_active
  | P_decide

let all_points =
  [
    P_execute; P_lock; P_validate; P_commit_backup; P_commit_primary; P_truncate;
    P_commit_wait; P_log_append; P_log_process; P_lock_grant; P_lock_refuse; P_drain;
    P_region_active; P_decide;
  ]

let all_points_arr = Array.of_list all_points
let n_points = Array.length all_points_arr

let point_index = function
  | P_execute -> 0
  | P_lock -> 1
  | P_validate -> 2
  | P_commit_backup -> 3
  | P_commit_primary -> 4
  | P_truncate -> 5
  | P_commit_wait -> 6
  | P_log_append -> 7
  | P_log_process -> 8
  | P_lock_grant -> 9
  | P_lock_refuse -> 10
  | P_drain -> 11
  | P_region_active -> 12
  | P_decide -> 13

let point_name = function
  | P_execute -> "execute"
  | P_lock -> "lock"
  | P_validate -> "validate"
  | P_commit_backup -> "commit-backup"
  | P_commit_primary -> "commit-primary"
  | P_truncate -> "truncate"
  | P_commit_wait -> "commit-wait"
  | P_log_append -> "log-append"
  | P_log_process -> "log-process"
  | P_lock_grant -> "lock-grant"
  | P_lock_refuse -> "lock-refuse"
  | P_drain -> "drain"
  | P_region_active -> "region-active"
  | P_decide -> "decide"

let point_label = function
  | P_execute -> "execute"
  | P_lock -> "LOCK"
  | P_validate -> "VALIDATE"
  | P_commit_backup -> "COMMIT-BACKUP"
  | P_commit_primary -> "COMMIT-PRIMARY"
  | P_truncate -> "TRUNCATE"
  | P_commit_wait -> "COMMIT-WAIT"
  | P_log_append -> "log-append"
  | P_log_process -> "log-process"
  | P_lock_grant -> "lock-grant"
  | P_lock_refuse -> "lock-refuse"
  | P_drain -> "rec-drain"
  | P_region_active -> "rec-region-active"
  | P_decide -> "rec-decide"

let all_phases =
  [ P_execute; P_lock; P_validate; P_commit_backup; P_commit_primary; P_truncate; P_commit_wait ]

let n_phases = List.length all_phases
let phase_name = point_name
let all_stages = [ P_drain; P_region_active; P_decide ]

(* A [K_phase] event's [a]: the point's index and the side of it. *)
let point_edge ~after p = (2 * point_index p) + Bool.to_int after

(* {1 Blame categories}

   An exclusive partition of transaction latency, finer than the phases: a
   phase segment is split between the resources that spent it (claimed by
   the fabric/log instrumentation as consecutive measured sub-intervals)
   with the unclaimed remainder falling to the phase's default category.
   Sums are exact by construction: claims never overlap and the remainder
   absorbs whatever they left, so per-transaction category sums equal the
   span total to the nanosecond. *)

type blame =
  | B_admission
  | B_execute
  | B_lock_wait
  | B_logring_wait
  | B_nic_issue
  | B_propagation
  | B_poll
  | B_commit_wait
  | B_truncate

let all_blames =
  [
    B_admission; B_execute; B_lock_wait; B_logring_wait; B_nic_issue; B_propagation;
    B_poll; B_commit_wait; B_truncate;
  ]

let n_blames = List.length all_blames

let blame_index = function
  | B_admission -> 0
  | B_execute -> 1
  | B_lock_wait -> 2
  | B_logring_wait -> 3
  | B_nic_issue -> 4
  | B_propagation -> 5
  | B_poll -> 6
  | B_commit_wait -> 7
  | B_truncate -> 8

let blame_name = function
  | B_admission -> "admission"
  | B_execute -> "execute"
  | B_lock_wait -> "lock-wait"
  | B_logring_wait -> "logring-wait"
  | B_nic_issue -> "nic-issue"
  | B_propagation -> "propagation"
  | B_poll -> "poll"
  | B_commit_wait -> "commit-wait"
  | B_truncate -> "truncate"

let all_blames_arr = Array.of_list all_blames

(* Where a phase segment's unclaimed remainder lands, by phase index:
   execute -> execute CPU, lock -> lock wait (the wait for LOCK replies
   dominates once the appends are carved out), validate / commit-backup /
   commit-primary -> propagation (what remains after issue and poll claims
   is wire-and-remote time), truncate -> truncate, commit-wait -> the
   clock-uncertainty wait. *)
let default_blame_of_phase =
  [|
    blame_index B_execute; blame_index B_lock_wait; blame_index B_propagation;
    blame_index B_propagation; blame_index B_propagation; blame_index B_truncate;
    blame_index B_commit_wait;
  |]

(* {1 Event kinds} — one vocabulary for every discrete event; a kind fixes
   the counter it bumps ([counter_of]) and the sinks it reaches ([route]). *)

type kind =
  | K_rdma_read
  | K_rdma_write
  | K_rdma_batch
  | K_send
  | K_send_ud
  | K_call
  | K_msg_recv
  | K_ud_drop
  | K_rc_retransmit
  | K_log_append
  | K_log_append_fail
  | K_log_record
  | K_log_trunc
  | K_phase
  | K_tx_commit
  | K_tx_abort
  | K_lease_renewal
  | K_lease_grant
  | K_lease_expiry
  | K_suspect
  | K_new_config
  | K_config_commit
  | K_rec_drain
  | K_rec_region_active
  | K_rec_vote
  | K_rec_decide
  | K_ms_killed
  | K_ms_power_cycle
  | K_ms_suspect
  | K_ms_probe
  | K_ms_zookeeper
  | K_ms_region_lost
  | K_ms_new_config
  | K_ms_config_commit
  | K_ms_all_active
  | K_ms_data_rec_start
  | K_ms_region_recovered
  | K_ms_data_rec_done
  | K_fault
  | K_flap_stall

(* The counter a kind bumps, one per event. *)
let counter_of = function
  | K_rdma_read -> Some C_rdma_read
  | K_rdma_write -> Some C_rdma_write
  | K_rdma_batch -> Some C_rdma_batch
  | K_send -> Some C_rpc_send
  | K_send_ud -> Some C_ud_send
  | K_call -> Some C_rpc_call
  | K_ud_drop -> Some C_ud_drop
  | K_rc_retransmit -> Some C_rc_retransmit
  | K_log_append -> Some C_log_append
  | K_log_append_fail -> Some C_log_append_fail
  | K_log_record -> Some C_log_record
  | K_log_trunc -> Some C_log_trunc
  | K_tx_commit -> Some C_tx_commit
  | K_tx_abort -> Some C_tx_abort
  | K_lease_renewal -> Some C_lease_renewal
  | K_lease_grant -> Some C_lease_grant
  | K_lease_expiry -> Some C_lease_expiry
  | K_suspect -> Some C_suspect
  | K_new_config -> Some C_reconfig
  | K_rec_vote -> Some C_rec_vote
  | K_rec_decide -> Some C_rec_decide
  | _ -> None

(* The sinks a kind is written to, as bits: the flight-recorder ring
   (gated by [enabled]), the always-on cluster log, where milestones are
   also counted, the recovery-stage histograms, and the commit-latency
   histogram and per-ms commit series. Trace instants are chosen by
   [trace_instant] below, behind the tracer's own switch. *)
let to_ring = 1
let to_log = 2
let to_milestones = 4
let to_stage = 8
let to_commit = 16

let route = function
  | K_tx_commit -> to_ring lor to_commit
  | K_rec_drain | K_rec_region_active | K_rec_decide -> to_ring lor to_stage
  | K_msg_recv -> 0
  | K_ud_drop | K_rc_retransmit -> to_ring lor to_log
  | K_ms_killed | K_ms_power_cycle | K_ms_suspect | K_ms_probe | K_ms_zookeeper
  | K_ms_region_lost | K_ms_new_config | K_ms_config_commit | K_ms_all_active
  | K_ms_data_rec_start | K_ms_region_recovered | K_ms_data_rec_done ->
      to_log lor to_milestones
  | K_fault | K_flap_stall -> to_log
  | _ -> to_ring

let is_milestone k = route k land to_milestones <> 0

let milestone_tag k ~a =
  match k with
  | K_ms_killed -> "killed"
  | K_ms_power_cycle -> "power-cycle"
  | K_ms_suspect -> "suspect"
  | K_ms_probe -> "probe"
  | K_ms_zookeeper -> "zookeeper"
  | K_ms_region_lost -> Printf.sprintf "region-lost:%d" a
  | K_ms_new_config -> "new-config"
  | K_ms_config_commit -> "config-commit"
  | K_ms_all_active -> "all-active"
  | K_ms_data_rec_start -> "data-rec-start"
  | K_ms_region_recovered -> "region-recovered"
  | K_ms_data_rec_done -> "data-rec-done"
  | _ -> invalid_arg "Obs.milestone_tag: not a milestone kind"

let log_payload_tag = function
  | 0 -> "LOCK"
  | 1 -> "COMMIT-BACKUP"
  | 2 -> "COMMIT-PRIMARY"
  | 3 -> "ABORT"
  | 4 -> "TRUNCATE-MARKER"
  | n -> Printf.sprintf "payload-%d" n

let render_body k ~a ~b ~c =
  match k with
  | K_rdma_read -> Printf.sprintf "rdma-read dst=m%d bytes=%d" a b
  | K_rdma_write -> Printf.sprintf "rdma-write dst=m%d bytes=%d" a b
  | K_rdma_batch -> Printf.sprintf "rdma-batch ops=%d bytes=%d" a b
  | K_send -> Printf.sprintf "send dst=m%d bytes=%d rc" a b
  | K_send_ud -> Printf.sprintf "send dst=m%d bytes=%d ud" a b
  | K_call -> Printf.sprintf "call dst=m%d bytes=%d" a b
  | K_msg_recv -> Printf.sprintf "recv from=m%d bytes=%d flow=%d" a b c
  | K_ud_drop -> Printf.sprintf "ud-drop dst=m%d" a
  | K_rc_retransmit -> Printf.sprintf "rc-retransmit dst=m%d" a
  | K_log_append -> Printf.sprintf "log-append dst=m%d bytes=%d used=%d" a b c
  | K_log_append_fail -> Printf.sprintf "log-append-FAIL dst=m%d bytes=%d" a b
  | K_log_record -> Printf.sprintf "log-record from=m%d %s" a (log_payload_tag b)
  | K_log_trunc -> Printf.sprintf "log-trunc coord=m%d local=%d" a b
  | K_phase ->
      Printf.sprintf "phase %s%s tx=%d.%d"
        (if a land 1 = 1 then "after-" else "before-")
        (point_name all_points_arr.(a / 2))
        b c
  | K_tx_commit -> Printf.sprintf "tx-commit latency=%dns" c
  | K_tx_abort ->
      Printf.sprintf "tx-abort reason=%d cause=%s" a
        (match b with
        | 0 -> "lock-refused"
        | 1 -> "validate-failed"
        | 2 -> "timeout"
        | _ -> "other")
  | K_lease_renewal -> Printf.sprintf "lease-renewal dst=m%d" a
  | K_lease_grant -> Printf.sprintf "lease-grant to=m%d" a
  | K_lease_expiry -> Printf.sprintf "lease-expiry peer=m%d" a
  | K_suspect -> Printf.sprintf "suspect m%d" a
  | K_new_config -> Printf.sprintf "new-config cfg=%d members=%d cm=m%d" a b c
  | K_config_commit -> Printf.sprintf "config-commit cfg=%d" a
  | K_rec_drain -> Printf.sprintf "rec-drain cfg=%d took=%dns" a b
  | K_rec_region_active -> Printf.sprintf "rec-region-active rid=%d took=%dns" a b
  | K_rec_vote -> Printf.sprintf "rec-vote rid=%d vote=%d" a b
  | K_rec_decide ->
      Printf.sprintf "rec-decide %s took=%dns" (if a = 1 then "committed" else "aborted") b
  | K_fault -> Printf.sprintf "fault #%d" a
  | K_flap_stall -> Printf.sprintf "lease-flap-stall m%d %dns" a b
  | k -> milestone_tag k ~a

(* {1 The cluster log}

   One per cluster, shared by every machine's sink. It holds the
   milestones, fabric drops and nemesis actions of every machine, in
   emission order: always on, only rare events, so a list (newest first)
   is enough; milestones are counted as they arrive.

   It also holds the aggregates that are only ever read cluster-wide (the
   interface lists them, and what stays per machine and why). Each is a
   sum of integers, so one copy written by every machine equals the merge
   of per-machine copies exactly. *)

type record = { r_at : int; r_kind : kind; r_machine : int; r_a : int; r_b : int; r_c : int }

type log = {
  mutable l_records : record list;
  mutable l_milestones : int;
  hists : Stats.Hist.t array;  (* per point: phase segments, stage durations *)
  commit_lat : Stats.Hist.t;  (* commit-phase latency of each commit, ns *)
  commit_bins : Stats.Series.t;  (* commits per 1 ms of sim time *)
  blame_tot : int array;  (* exact committed ns per category *)
  blame_hists : Stats.Hist.t array;
  phase_tot : int array;  (* exact committed ns per phase (reconciliation) *)
}

let create_log () =
  {
    l_records = [];
    l_milestones = 0;
    hists = Array.init n_points (fun _ -> Stats.Hist.create ());
    commit_lat = Stats.Hist.create ();
    commit_bins = Stats.Series.create ~bin:(Time.ms 1);
    blame_tot = Array.make n_blames 0;
    blame_hists = Array.init n_blames (fun _ -> Stats.Hist.create ());
    phase_tot = Array.make n_phases 0;
  }

let log_records l = List.rev l.l_records
let log_milestones l = l.l_milestones

(* {1 The sink} *)

type span = {
  sp_obs : t;
  sp_start : int;  (* ns *)
  sp_tid : int;  (* worker-thread track for trace slices *)
  sp_seg : int array;  (* accumulated ns per phase *)
  sp_visited : bool array;
  sp_blame : int array;  (* ns per blame category; [||] unless blame is on *)
  mutable sp_claimed : int;  (* ns claimed within the current segment *)
  mutable sp_cur : int;  (* current phase index; -1 once finished *)
  mutable sp_since : int;  (* current segment's start, ns *)
  mutable sp_total : int;  (* filled at finish *)
  mutable sp_txm : int;  (* trace context (coordinator, thread, local id); *)
  mutable sp_txt : int;  (* sp_txm = -1 until set_tx *)
  mutable sp_txl : int;
}

and exemplar = {
  ex_txm : int;
  ex_txt : int;
  ex_txl : int;
  ex_start : int;  (* ns *)
  ex_total : int;  (* ns *)
  ex_blame : int array;  (* per-category ns, a snapshot of the span's *)
}

and t = {
  engine : Engine.t;
  obs_machine : int;
  obs_log : log;
  mutable obs_enabled : bool;
  ring : kind Ring.t;  (* per event: sim-time ns, a, b, c *)
  counters : int array;
  obs_tracer : Tracer.t;
  obs_timeline : Timeline.t;
  mutable blame_on : bool;  (* gates span blame arrays and exemplars *)
  mutable exemplars : exemplar list;  (* slowest committed txs, desc, <= k *)
  obs_heat : Heat.t;
}

let exemplar_k = 8

let create ?(capacity = 128) ?(log = create_log ()) engine ~machine =
  {
    engine;
    obs_machine = machine;
    obs_log = log;
    obs_enabled = false;
    ring = Ring.create ~capacity ~stride:4 K_phase;
    counters = Array.make n_counters 0;
    obs_tracer = Tracer.create engine ~machine;
    obs_timeline = Timeline.create engine ~machine;
    blame_on = false;
    exemplars = [];
    obs_heat = Heat.create ();
  }

let set_enabled t on = t.obs_enabled <- on
let tracer t = t.obs_tracer
let timeline t = t.obs_timeline
(* Arming starts a fresh attribution window: the exact accumulators (and
   the exemplar list) are reset so that blame and phase totals cover the
   same interval — a caller arming after a bulk-load phase would otherwise
   compare post-arm blame against whole-run phases. The phase *histograms*
   are not touched: they are whole-run observables in their own right.
   The accumulators are the cluster's: arming every machine at one
   instant, as [Cluster.set_blame] does, clears them once in effect. *)
let set_blame t on =
  if on && not t.blame_on then begin
    let l = t.obs_log in
    Array.fill l.phase_tot 0 n_phases 0;
    Array.fill l.blame_tot 0 n_blames 0;
    Array.iter Stats.Hist.clear l.blame_hists;
    t.exemplars <- []
  end;
  t.blame_on <- on
let blame_enabled t = t.blame_on
let heat t = t.obs_heat

let heat_access t ~region =
  Heat.access t.obs_heat ~now:(Time.to_ns (Engine.now t.engine)) ~region

let heat_conflict t ~region =
  Heat.conflict t.obs_heat ~now:(Time.to_ns (Engine.now t.engine)) ~region

let incr t c = t.counters.(counter_index c) <- t.counters.(counter_index c) + 1
let add t c n = t.counters.(counter_index c) <- t.counters.(counter_index c) + n
let counter t c = t.counters.(counter_index c)
let commit_latency t = t.obs_log.commit_lat
let commit_series t = t.obs_log.commit_bins

let counter_totals t =
  List.filter_map
    (fun c ->
      let v = counter t c in
      if v = 0 then None else Some (counter_name c, v))
    all_counters

(* The kinds that are also trace instants: track, name and argument.
   Messages are instants only when they carry a flow id. *)
let trace_instant t kind ~a ~c =
  let tr = t.obs_tracer in
  match kind with
  | K_send | K_send_ud | K_call ->
      if c <> 0 then Tracer.instant tr ~tid:Tracer.tid_net ~name:"msg-send" ~arg:c
  | K_msg_recv -> if c <> 0 then Tracer.instant tr ~tid:Tracer.tid_net ~name:"msg-recv" ~arg:c
  | K_ud_drop -> Tracer.instant tr ~tid:Tracer.tid_net ~name:"drop" ~arg:a
  | K_rc_retransmit -> Tracer.instant tr ~tid:Tracer.tid_net ~name:"retransmit" ~arg:a
  | K_lease_expiry -> Tracer.instant tr ~tid:Tracer.tid_lease ~name:"lease-expiry" ~arg:a
  | K_suspect -> Tracer.instant tr ~tid:Tracer.tid_lease ~name:"suspect" ~arg:a
  | K_config_commit ->
      Tracer.instant tr ~tid:Tracer.tid_recovery ~name:"config-commit" ~arg:a
  | K_log_trunc -> Tracer.instant tr ~tid:(Tracer.tid_log ~sender:a) ~name:"truncate" ~arg:a
  | _ -> ()

(* A recovery stage that just ended, [ns] long: into its histogram, and
   onto the recovery track as a slice spanning [now - ns, now]. *)
let record_stage t kind ~ns =
  let p =
    match kind with
    | K_rec_drain -> P_drain
    | K_rec_region_active -> P_region_active
    | _ -> P_decide
  in
  Stats.Hist.record t.obs_log.hists.(point_index p) ns;
  let now = Time.to_ns (Engine.now t.engine) in
  Tracer.slice t.obs_tracer ~tid:Tracer.tid_recovery ~label:(point_label p)
    ~start:(now - ns) ~arg:0 ~txm:(-1) ~txt:0 ~txl:0 ~flow_in:0 ~flow_out:0

let event t kind ~a ~b ~c =
  (match counter_of kind with Some ctr -> incr t ctr | None -> ());
  let sinks = route kind in
  if sinks land to_stage <> 0 then record_stage t kind ~ns:b;
  if sinks land to_commit <> 0 then begin
    Stats.Hist.record t.obs_log.commit_lat c;
    Stats.Series.add t.obs_log.commit_bins ~at:(Engine.now t.engine) 1
  end;
  if t.obs_enabled && sinks land to_ring <> 0 then begin
    let h = Ring.push t.ring kind in
    Ring.set t.ring h 0 (Time.to_ns (Engine.now t.engine));
    Ring.set t.ring h 1 a;
    Ring.set t.ring h 2 b;
    Ring.set t.ring h 3 c
  end;
  if sinks land to_log <> 0 then begin
    let l = t.obs_log in
    let r_at = Time.to_ns (Engine.now t.engine) in
    l.l_records <-
      { r_at; r_kind = kind; r_machine = t.obs_machine; r_a = a; r_b = b; r_c = c }
      :: l.l_records;
    if sinks land to_milestones <> 0 then l.l_milestones <- l.l_milestones + 1
  end;
  if Tracer.enabled t.obs_tracer then trace_instant t kind ~a ~c

let total_events t = Ring.total t.ring

let events t =
  let get = Ring.get t.ring in
  Ring.to_list t.ring (fun kind h ->
      (get h 0, render_body kind ~a:(get h 1) ~b:(get h 2) ~c:(get h 3)))

(* {1 Spans} *)

let hist t p = t.obs_log.hists.(point_index p)

(* [i] is a phase index *)
let record_phase t i ns =
  let l = t.obs_log in
  l.phase_tot.(i) <- l.phase_tot.(i) + ns;
  if ns > 0 then Stats.Hist.record l.hists.(i) ns

let phase_total_ns t p = t.obs_log.phase_tot.(point_index p)
let blame_hist t b = t.obs_log.blame_hists.(blame_index b)
let blame_total_ns t b = t.obs_log.blame_tot.(blame_index b)

let record_blame t b ns =
  let l = t.obs_log and i = blame_index b in
  l.blame_tot.(i) <- l.blame_tot.(i) + ns;
  if ns > 0 then Stats.Hist.record l.blame_hists.(i) ns

let exemplars t = t.exemplars

(* Keep the k slowest committed spans (descending, ties broken towards the
   earlier arrival, which keeps the list deterministic under seed replay).
   Insertion allocates a snapshot, but only when the new span beats the
   current floor — rare once the list is warm. *)
let note_exemplar t sp total =
  let floor_beaten =
    match t.exemplars with
    | [] -> true
    | l when List.length l < exemplar_k -> true
    | l -> total > (List.nth l (exemplar_k - 1)).ex_total
  in
  if floor_beaten then begin
    let ex =
      {
        ex_txm = sp.sp_txm;
        ex_txt = sp.sp_txt;
        ex_txl = sp.sp_txl;
        ex_start = sp.sp_start;
        ex_total = total;
        ex_blame = Array.copy sp.sp_blame;
      }
    in
    let rec insert = function
      | [] -> [ ex ]
      | x :: rest when x.ex_total >= total -> x :: insert rest
      | rest -> ex :: rest
    in
    let l = insert t.exemplars in
    t.exemplars <-
      (if List.length l > exemplar_k then List.filteri (fun i _ -> i < exemplar_k) l
       else l)
  end

module Span = struct
  type nonrec t = span

  let start ?(tid = 0) obs =
    let now = Time.to_ns (Engine.now obs.engine) in
    let visited = Array.make n_phases false in
    visited.(point_index P_execute) <- true;
    {
      sp_obs = obs;
      sp_start = now;
      sp_tid = tid;
      sp_seg = Array.make n_phases 0;
      sp_visited = visited;
      (* [||] is the static empty block: spans cost no extra allocation
         unless blame attribution has been switched on *)
      sp_blame = (if obs.blame_on then Array.make n_blames 0 else [||]);
      sp_claimed = 0;
      sp_cur = point_index P_execute;
      sp_since = now;
      sp_total = 0;
      sp_txm = -1;
      sp_txt = 0;
      sp_txl = 0;
    }

  let set_tx sp ~txm ~txt ~txl =
    sp.sp_txm <- txm;
    sp.sp_txt <- txt;
    sp.sp_txl <- txl

  let close_current sp now =
    let seg = now - sp.sp_since in
    sp.sp_seg.(sp.sp_cur) <- sp.sp_seg.(sp.sp_cur) + seg;
    (* blame: whatever the instrumentation did not claim inside this
       segment falls to the phase's default category, so the categories
       always sum to exactly the segment (hence to the span total) *)
    if Array.length sp.sp_blame > 0 then begin
      let d = default_blame_of_phase.(sp.sp_cur) in
      sp.sp_blame.(d) <- sp.sp_blame.(d) + (seg - sp.sp_claimed);
      sp.sp_claimed <- 0
    end;
    (* every nonempty segment is also a trace slice on the worker's track *)
    if seg > 0 then
      Tracer.slice sp.sp_obs.obs_tracer ~tid:sp.sp_tid
        ~label:(point_label all_points_arr.(sp.sp_cur))
        ~start:sp.sp_since ~arg:0 ~txm:sp.sp_txm ~txt:sp.sp_txt ~txl:sp.sp_txl
        ~flow_in:0 ~flow_out:0;
    sp.sp_since <- now

  let claim sp b ns =
    if ns > 0 && Array.length sp.sp_blame > 0 && sp.sp_cur >= 0 then begin
      let i = blame_index b in
      sp.sp_blame.(i) <- sp.sp_blame.(i) + ns;
      sp.sp_claimed <- sp.sp_claimed + ns
    end

  let enter sp phase =
    if sp.sp_cur >= 0 then begin
      let now = Time.to_ns (Engine.now sp.sp_obs.engine) in
      close_current sp now;
      let i = point_index phase in
      sp.sp_cur <- i;
      sp.sp_visited.(i) <- true
    end

  let finish sp ~committed =
    if sp.sp_cur >= 0 then begin
      let now = Time.to_ns (Engine.now sp.sp_obs.engine) in
      close_current sp now;
      sp.sp_cur <- -1;
      sp.sp_total <- now - sp.sp_start;
      if committed then begin
        for i = 0 to n_phases - 1 do
          if sp.sp_visited.(i) then record_phase sp.sp_obs i sp.sp_seg.(i)
        done;
        if Array.length sp.sp_blame > 0 then begin
          for i = 0 to n_blames - 1 do
            record_blame sp.sp_obs all_blames_arr.(i) sp.sp_blame.(i)
          done;
          note_exemplar sp.sp_obs sp sp.sp_total
        end
      end
    end

  (* Recorded like a committed segment, with its whole duration falling to
     the phase's default blame category (nothing claims inside it), and
     sliced even when empty. *)
  let late_segment sp p ~start =
    let obs = sp.sp_obs in
    let now = Time.to_ns (Engine.now obs.engine) in
    let i = point_index p in
    record_phase obs i (now - start);
    if obs.blame_on then
      record_blame obs all_blames_arr.(default_blame_of_phase.(i)) (now - start);
    Tracer.slice obs.obs_tracer ~tid:sp.sp_tid ~label:(point_label p) ~start ~arg:0
      ~txm:sp.sp_txm ~txt:sp.sp_txt ~txl:sp.sp_txl ~flow_in:0 ~flow_out:0

  let segments sp =
    List.filteri (fun i _ -> sp.sp_visited.(i)) (List.init n_phases Fun.id)
    |> List.map (fun i -> (all_points_arr.(i), sp.sp_seg.(i)))

  let total_ns sp = sp.sp_total

  let blame sp =
    if Array.length sp.sp_blame = 0 then []
    else
      List.filteri (fun i _ -> sp.sp_blame.(i) <> 0) (List.init n_blames Fun.id)
      |> List.map (fun i -> (all_blames_arr.(i), sp.sp_blame.(i)))
end

(* {1 Reporting} *)

let pp_counters ppf t =
  match counter_totals t with
  | [] -> Fmt.string ppf "(no activity)"
  | totals ->
      Fmt.pf ppf "%a" Fmt.(list ~sep:sp (fun ppf (n, v) -> Fmt.pf ppf "%s=%d" n v)) totals

let pp_hist_table ppf hists =
  let nonempty = List.filter (fun (_, h) -> Stats.Hist.count h > 0) hists in
  if nonempty <> [] then begin
    Fmt.pf ppf "%-16s %9s %10s %10s %10s %10s %10s %10s@." "phase" "count" "p50(us)"
      "p90(us)" "p99(us)" "p999(us)" "max(us)" "mean(us)";
    List.iter
      (fun (name, h) ->
        let p q = float_of_int (Stats.Hist.percentile h q) /. 1e3 in
        Fmt.pf ppf "%-16s %9d %10.2f %10.2f %10.2f %10.2f %10.2f %10.2f@." name
          (Stats.Hist.count h) (p 50.) (p 90.) (p 99.) (p 99.9)
          (float_of_int (Stats.Hist.max_value h) /. 1e3)
          (Stats.Hist.mean h /. 1e3))
      nonempty
  end
