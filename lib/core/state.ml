open Farm_sim

(* Shared mutable state of one FaRM machine. All protocol modules
   (Commit, Logproc, Lease, Cm, Recovery, Datarec, Allocmgr) operate on
   this record; Node wires message dispatch; Cluster builds the fleet.

   State is split between:
   - process state, which dies with the machine (caches, pending tables,
     leases, configuration), and
   - NVRAM state ([nv]), owned by the cluster harness and surviving
     crashes: region replicas, block headers, and incoming ring logs. *)

type role = Primary | Backup

type replica = {
  rid : int;
  mem : Farm_nvram.Pagemem.t;
  mutable role : role;
  mutable active : bool;  (* false while blocked for lock recovery (§5.3 step 1) *)
  mutable active_wait : unit Ivar.t;
  (* allocator metadata: block index -> object size; replicated in NVRAM *)
  block_headers : (int, int) Hashtbl.t;
  (* primary-only, volatile: object size -> free offsets (§5.5) *)
  free_lists : (int, int list ref) Hashtbl.t;
  (* membership mirror of all free lists: guarantees an offset is listed at
     most once even when an abort-return races the recovery scan *)
  free_set : (int, unit) Hashtbl.t;
  mutable next_free_block : int;
  mutable free_lists_valid : bool;  (* false on a new primary until scan *)
  mutable fresh_backup : bool;  (* zeroed replica awaiting data recovery *)
  (* snapshot protocol only: archived versions older than the region-memory
     head, plus the per-offset head commit timestamps. None in the
     validate-at-commit baseline, which carries zero chain overhead. *)
  vc : Verchain.t option;
}

type nvstate = {
  bank : Farm_nvram.Bank.t;
  replicas : (int, replica) Hashtbl.t;
  logs_in : (int, Ringlog.t) Hashtbl.t;  (* sender -> log stored here *)
}

(* Coordinator wait-states *)

type lock_wait = {
  mutable lw_awaiting : int;
  mutable lw_ok : bool;
  lw_done : unit Ivar.t;
  (* snapshot protocol: the largest head commit timestamp among the objects
     the LOCK replies locked — the coordinator's write timestamp must
     exceed every version it overwrites *)
  mutable lw_max_ts : int;
}

type outcome = Committed | Aborted

(* Coordinator record for a transaction in its commit phase; consulted by
   recovery when a configuration change makes the transaction recovering. *)
type tx_live = {
  lt_txid : Txid.t;
  lt_written_regions : int list;
  lt_read_regions : int list;
  lt_outcome : outcome Ivar.t;  (* filled by recovery if it takes over *)
  mutable lt_recovering : bool;
  lt_born : Time.t;  (* commit start, for the coordinator's park watchdog *)
}

(* Truncation tracking at a record receiver: per coordinator thread, a low
   bound plus the set of truncated local ids above it (§5.3 step 6). *)
type trunc_track = { mutable low : int; above : unit Int_tbl.t }

(* Recovery-coordinator state for one recovering transaction. *)
type rec_coord = {
  rc_txid : Txid.t;
  mutable rc_votes : (int * Wire.vote) list;  (* region -> vote *)
  mutable rc_regions : int list;  (* all written regions, from votes *)
  mutable rc_decided : bool;
  mutable rc_pushing : bool;  (* a decision-push loop is running *)
  rc_created : Time.t;
}

(* Per-configuration-change recovery state at each machine (§5.3). *)
type recovery_state = {
  rs_cfg : int;
  mutable rs_drained : bool;
  (* evidence about recovering transactions assembled from local logs *)
  rs_local : Wire.tx_evidence Txid.Tbl.t;
  (* per region this machine is (new) primary for: backups heard from *)
  rs_need_recovery : (int, int list ref) Hashtbl.t;
  (* per region: recovering transactions affecting it *)
  rs_region_txs : (int, Txid.Set.t ref) Hashtbl.t;
  (* which transactions each (region, backup) already holds a lock payload
     for — drives log-record replication (§5.3 step 5) *)
  rs_backup_has : (int * int, Txid.Set.t ref) Hashtbl.t;
  mutable rs_regions_active_sent : bool;
  mutable rs_all_active : bool;
}

type lease_impl = Rpc_shared | Ud_shared | Ud_thread | Ud_thread_pri

type lease_state = {
  mutable impl : lease_impl;
  mutable last_grant_from_cm : Time.t;  (* last grant from my grantor *)
  mutable expiry_events : int;  (* counts lease expiries observed (fig 16) *)
  mutable suspended_until : Time.t;  (* dedicated-thread preemption spikes *)
  mutable cm_suspected : bool;  (* latched until the next grant/config *)
  peer_leases : (int, Time.t) Hashtbl.t;
      (* grantor side for group leaders in the two-level hierarchy *)
  mutable grantor_messages : int;  (* lease messages handled as a grantor *)
}

(* CM-only state. *)
type cm_state = {
  mutable next_rid : int;
  (* authoritative region map *)
  owners : (int, Wire.region_info) Hashtbl.t;
  (* lease table: machine -> last renewal received *)
  cm_leases : (int, Time.t) Hashtbl.t;
  mutable regions_active_from : int list;
  mutable all_active_sent : bool;
  (* reconfiguration ack collection: (cfg, machines remaining, done) *)
  mutable ack_pending : (int * int list ref * unit Ivar.t) option;
  mutable pending_data_recovery : int;
  (* snapshot protocol: last watermark reported by each machine; the
     cluster minimum is released only once every member has reported *)
  cm_wms : (int, int) Hashtbl.t;
}

type commit_phase =
  | Before_lock
  | After_lock
  | After_validate
  | After_commit_backup
  | After_commit_primary
  | After_truncate

type t = {
  id : int;
  engine : Engine.t;
  rng : Rng.t;
  params : Params.t;
  fabric : Wire.message Farm_net.Fabric.t;
  zk : Config.t Farm_coord.Zk.t;
  cpu : Cpu.t;
  nv : nvstate;
  clock : Clock.handle;
      (* this machine's view of global time (bounded uncertainty); present
         in both modes so offset draws keep the rng streams aligned, but
         only the snapshot protocol ever reads it *)
  mutable ctx : Proc.Ctx.t;
  mutable alive : bool;
  mutable config : Config.t;
  mutable region_map : Wire.region_info Int_tbl.t;  (* cache *)
  mutable last_drained : int;
  mutable blocked : bool;  (* external client requests blocked *)
  (* restarted after a crash: must not resume membership in a configuration
     probed before the crash (failure and rejoin are both configuration
     changes, §5.2) *)
  mutable rejoining : bool;
  (* sender-side views of logs located at other machines *)
  logs_out : Ringlog.t Int_tbl.t;
  (* per incoming log: a poller is currently scheduled *)
  pollers : (int, bool ref) Hashtbl.t;
  (* allocator spill map: when a region fills up, this machine allocates a
     co-located overflow region through the CM and remembers it here *)
  spill : int Int_tbl.t;
  (* coordinator-side *)
  next_local : int array;  (* per-thread local tx sequence *)
  outstanding : Txid.Set.t ref Int_tbl.t;  (* thread -> not-yet-truncated *)
  pending_lock : lock_wait Txid.Tbl.t;
  active_txs : tx_live Txid.Tbl.t;
  (* snapshot protocol: read timestamps of transactions currently executing
     on this machine (ts -> holder count); their minimum caps the local
     truncation watermark *)
  read_ts_active : int Int_tbl.t;
  (* primary-side lock ownership: which written objects each transaction
     currently holds locks on at this machine. Unlocking anything not in
     this table would release another transaction's lock taken at the same
     version. *)
  locks_held : Wire.write_item list Txid.Tbl.t;
  (* per-commit scratch arenas (see Arena); workers acquire one per commit *)
  arena_pool : Arena.pool;
  (* truncation *)
  pending_trunc : Txid.t list ref Int_tbl.t;  (* dest machine -> txids *)
  truncated : trunc_track Int_tbl.t;  (* Txid.coord_id -> tracking *)
  (* log-record processing *)
  mutable inflight : int;  (* log entries currently being processed *)
  mutable inflight_blocked : int;  (* of which blocked on region activation *)
  deferred_trunc : Txid.Set.t ref Int_tbl.t;
      (* truncations received while the tx still had unprocessed records in
         the sender's log; keyed by sender machine *)
  (* recovery *)
  mutable recovery : recovery_state option;
  rec_coords : rec_coord Txid.Tbl.t;
  recovered_outcomes : outcome Txid.Tbl.t;  (* decided by recovery here *)
  lease : lease_state;
  mutable cm : cm_state option;
  mutable reconfig_active : bool;
  pending_suspects : (int, unit) Hashtbl.t;
  obs : Farm_obs.Obs.t;  (* per-machine observability sink *)
  (* the cluster's "memory bus": lets one-sided operations reach remote
     replicas without involving the remote CPU *)
  directory : t Int_tbl.t;
  (* wiring installed by Node to avoid module cycles *)
  mutable on_suspect : int list -> unit;  (* lease expiry -> reconfiguration *)
  (* application-registered handler for function-shipped operations *)
  mutable app_handler : (tag:int -> args:int array -> bool) option;
  (* test and tracing hook *)
  mutable phase_hook : (commit_phase -> Txid.t -> unit) option;
}

let create ~id ~engine ~rng ~params ~fabric ~zk ~cpu ~nv ~clock ~config ~directory ~obs =
  {
    id;
    engine;
    rng;
    params;
    fabric;
    zk;
    cpu;
    nv;
    clock;
    ctx = Proc.Ctx.create ~name:(Printf.sprintf "m%d" id) ();
    alive = true;
    config;
    region_map = Int_tbl.create 64;
    last_drained = 0;
    blocked = false;
    rejoining = false;
    logs_out = Int_tbl.create 16;
    pollers = Hashtbl.create 16;
    spill = Int_tbl.create 16;
    next_local = Array.make params.Params.threads_per_machine 0;
    outstanding = Int_tbl.create 8;
    pending_lock = Txid.Tbl.create 64;
    active_txs = Txid.Tbl.create 64;
    read_ts_active = Int_tbl.create 64;
    locks_held = Txid.Tbl.create 64;
    arena_pool = Arena.create_pool ~reuse:params.Params.arena_reuse;
    pending_trunc = Int_tbl.create 16;
    truncated = Int_tbl.create 64;
    inflight = 0;
    inflight_blocked = 0;
    deferred_trunc = Int_tbl.create 16;
    recovery = None;
    rec_coords = Txid.Tbl.create 16;
    recovered_outcomes = Txid.Tbl.create 64;
    lease =
      {
        impl = Ud_thread_pri;
        last_grant_from_cm = Time.zero;
        expiry_events = 0;
        suspended_until = Time.zero;
        cm_suspected = false;
        peer_leases = Hashtbl.create 8;
        grantor_messages = 0;
      };
    cm = None;
    reconfig_active = false;
    pending_suspects = Hashtbl.create 8;
    obs;
    directory;
    on_suspect = (fun _ -> ());
    app_handler = None;
    phase_hook = None;
  }

let peer st id = Int_tbl.find_opt st.directory id

let now st = Engine.now st.engine
let is_cm st = st.config.Config.cm = st.id

let ensure_cm st =
  match st.cm with
  | Some c -> c
  | None ->
      let c =
        {
          next_rid = 1;
          owners = Hashtbl.create 64;
          cm_leases = Hashtbl.create 16;
          regions_active_from = [];
          all_active_sent = false;
          ack_pending = None;
          pending_data_recovery = 0;
          cm_wms = Hashtbl.create 16;
        }
      in
      st.cm <- Some c;
      c

(* {1 Region lookups} *)

let region_info st rid = Int_tbl.find_opt st.region_map rid

let primary_of st rid =
  match region_info st rid with Some i -> Some i.Wire.primary | None -> None

let replica st rid = Hashtbl.find_opt st.nv.replicas rid

let replica_exn st rid =
  match replica st rid with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "machine %d has no replica of region %d" st.id rid)

(* Create (or find) the local replica record for a region, backed by
   zeroed paged memory in this machine's non-volatile DRAM. *)
let add_replica st ~rid ~role =
  match Hashtbl.find_opt st.nv.replicas rid with
  | Some r -> r
  | None ->
      let mem = Farm_nvram.Bank.alloc st.nv.bank ~key:rid ~size:st.params.Params.region_size in
      let vc =
        match st.params.Params.protocol with
        | Params.Validate_at_commit -> None
        | Params.Snapshot ->
            (* a replica created at time zero has the full (empty) history;
               one created later — a fresh backup, re-replicated from
               current heads — cannot serve snapshots older than its
               creation, so its chain floor starts above any read
               timestamp drawn before it existed *)
            let floor =
              if Time.to_ns (Engine.now st.engine) = 0 then 0 else Clock.hi st.clock + 1
            in
            Some (Verchain.create ~floor)
      in
      let r =
        {
          rid;
          mem;
          role;
          active = false;
          active_wait = Ivar.create ();
          block_headers = Hashtbl.create 16;
          free_lists = Hashtbl.create 8;
          free_set = Hashtbl.create 64;
          next_free_block = 0;
          free_lists_valid = true;
          fresh_backup = false;
          vc;
        }
      in
      Hashtbl.replace st.nv.replicas rid r;
      r

(* Block the caller until the region replica is active (lock recovery has
   finished, §5.3 step 4). *)
let await_active r = if r.active then () else Ivar.read r.active_wait

let set_active r =
  if not r.active then begin
    r.active <- true;
    Ivar.fill r.active_wait ()
  end

let set_inactive r =
  if r.active then begin
    r.active <- false;
    r.active_wait <- Ivar.create ()
  end

(* {1 Outgoing logs} *)

let log_to st dst =
  match Int_tbl.find_opt st.logs_out dst with
  | Some l -> l
  | None -> invalid_arg (Printf.sprintf "machine %d has no log to %d" st.id dst)

(* {1 Transaction ids} *)

let fresh_txid st ~thread =
  let local = st.next_local.(thread) in
  st.next_local.(thread) <- local + 1;
  let txid = Txid.make ~config:st.config.Config.id ~machine:st.id ~thread ~local in
  let outs =
    match Int_tbl.find_opt st.outstanding thread with
    | Some s -> s
    | None ->
        let s = ref Txid.Set.empty in
        Int_tbl.replace st.outstanding thread s;
        s
  in
  outs := Txid.Set.add txid !outs;
  txid

(* The thread's low bound on non-truncated transaction ids, piggybacked on
   log records. *)
let low_bound st ~thread =
  match Int_tbl.find_opt st.outstanding thread with
  | None -> st.next_local.(thread)
  | Some s ->
      if Txid.Set.is_empty !s then st.next_local.(thread)
      else (Txid.Set.min_elt !s).Txid.local

let forget_outstanding st txid =
  match Int_tbl.find_opt st.outstanding txid.Txid.thread with
  | Some s -> s := Txid.Set.remove txid !s
  | None -> ()

(* {1 Truncation tracking at receivers} *)

let trunc_track st ~coord =
  match Int_tbl.find_opt st.truncated coord with
  | Some t -> t
  | None ->
      let t = { low = 0; above = Int_tbl.create 16 } in
      Int_tbl.replace st.truncated coord t;
      t

let mark_truncated st txid =
  let t = trunc_track st ~coord:(Txid.coord_id txid) in
  if txid.Txid.local >= t.low then Int_tbl.replace t.above txid.Txid.local ()

let update_low_bound st ~coord low =
  let t = trunc_track st ~coord in
  if low > t.low then begin
    t.low <- low;
    Int_tbl.filter_map_inplace (fun l () -> if l < low then None else Some ()) t.above
  end

let is_truncated st txid =
  let t = trunc_track st ~coord:(Txid.coord_id txid) in
  txid.Txid.local < t.low || Int_tbl.mem t.above txid.Txid.local

(* {1 Pending truncations at the coordinator} *)

let queue_truncation st ~dst txid =
  let q =
    match Int_tbl.find_opt st.pending_trunc dst with
    | Some q -> q
    | None ->
        let q = ref [] in
        Int_tbl.replace st.pending_trunc dst q;
        q
  in
  q := txid :: !q

let take_truncations st ~dst =
  match Int_tbl.find_opt st.pending_trunc dst with
  | None -> []
  | Some q ->
      let l = !q in
      q := [];
      l

let record_commit st ~latency =
  Farm_obs.Obs.event st.obs Farm_obs.Obs.K_tx_commit ~a:0 ~b:0
    ~c:(Time.to_ns latency)

type abort_cause = Cause_lock | Cause_validate | Cause_timeout | Cause_other

let abort_cause_index = function
  | Cause_lock -> 0
  | Cause_validate -> 1
  | Cause_timeout -> 2
  | Cause_other -> 3

let record_abort ?(reason = 0) ?cause st =
  let cause =
    match cause with
    | Some c -> c
    (* reason tag 3 is Txn.Failed — participant death / NIC give-up *)
    | None -> if reason = 3 then Cause_timeout else Cause_other
  in
  (match cause with
  | Cause_lock -> Farm_obs.Obs.incr st.obs Farm_obs.Obs.C_abort_lock_refused
  | Cause_validate -> Farm_obs.Obs.incr st.obs Farm_obs.Obs.C_abort_validate_failed
  | Cause_timeout -> Farm_obs.Obs.incr st.obs Farm_obs.Obs.C_abort_timeout
  | Cause_other -> ());
  Farm_obs.Obs.event st.obs Farm_obs.Obs.K_tx_abort ~a:reason
    ~b:(abort_cause_index cause) ~c:0

(* {1 Snapshot read timestamps and the truncation watermark} *)

let register_read_ts st ts =
  let n = match Int_tbl.find_opt st.read_ts_active ts with Some n -> n | None -> 0 in
  Int_tbl.replace st.read_ts_active ts (n + 1)

let release_read_ts st ts =
  match Int_tbl.find_opt st.read_ts_active ts with
  | Some 1 -> Int_tbl.remove st.read_ts_active ts
  | Some n -> Int_tbl.replace st.read_ts_active ts (n - 1)
  | None -> ()

let min_active_read_ts st =
  Int_tbl.fold
    (fun ts _ acc -> match acc with None -> Some ts | Some m -> Some (min ts m))
    st.read_ts_active None

(* The watermark this machine can safely contribute to the cluster minimum:
   no version at or above it may be truncated. Capped by the clock's lower
   bound because a transaction beginning here right now would draw exactly
   that read timestamp. *)
let local_watermark st =
  let lo = Clock.lo st.clock in
  match min_active_read_ts st with None -> lo | Some m -> min m lo

let trim_chains st ~wm =
  let dropped = ref 0 in
  Hashtbl.iter
    (fun _ r ->
      match r.vc with
      | Some vc -> dropped := !dropped + Verchain.trim vc ~wm
      | None -> ())
    st.nv.replicas;
  if !dropped > 0 then Farm_obs.Obs.add st.obs Farm_obs.Obs.C_wm_trim !dropped;
  !dropped

let commit_phase_index = function
  | Before_lock -> 0
  | After_lock -> 1
  | After_validate -> 2
  | After_commit_backup -> 3
  | After_commit_primary -> 4
  | After_truncate -> 5

let phase st phase txid =
  Farm_obs.Obs.event st.obs Farm_obs.Obs.K_phase ~a:(commit_phase_index phase)
    ~b:txid.Txid.thread ~c:txid.Txid.local;
  match st.phase_hook with Some f -> f phase txid | None -> ()
