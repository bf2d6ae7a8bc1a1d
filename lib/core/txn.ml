open Farm_sim


(* Transaction execution phase (§3, §4).

   During execution, reads go to primaries (one-sided RDMA if remote, local
   memory access otherwise) and writes are buffered at the coordinator.
   FaRM guarantees atomic reads of individual committed objects and defers
   all cross-object consistency checks to commit-time validation; the
   execute phase therefore only records the version of everything it
   read. *)

type abort_reason =
  | Conflict  (* lock or validation failure: concurrent writer won *)
  | Not_allocated  (* the object was freed *)
  | Out_of_space
  | Failed  (* unresolvable machine failures; recovery aborted the tx *)
  | Explicit  (* application called abort *)

let pp_abort ppf r =
  Fmt.string ppf
    (match r with
    | Conflict -> "conflict"
    | Not_allocated -> "not-allocated"
    | Out_of_space -> "out-of-space"
    | Failed -> "failed"
    | Explicit -> "explicit")

exception Abort of abort_reason

type read_entry = { r_version : int; r_value : bytes }

type write_entry = {
  w_version : int;
  mutable w_value : bytes;
  mutable w_alloc : Wire.alloc_op;
}

type t = {
  st : State.t;
  thread : int;
  t_started : Time.t;
  span : Farm_obs.Obs.Span.t;  (* opened at [t_started], in P_execute *)
  mutable reads : read_entry Addr.Map.t;
  mutable writes : write_entry Addr.Map.t;
  mutable allocated : (Addr.t * int) list;  (* tentative slots, for abort *)
  mutable finished : bool;
  (* snapshot protocol: the transaction's read timestamp, drawn from the
     local clock's lower bound at begin and registered in
     [State.read_ts_active] until the transaction settles. -1 in the
     validate-at-commit baseline. *)
  mutable read_ts : int;
}

let reason_index = function
  | Conflict -> 0
  | Not_allocated -> 1
  | Out_of_space -> 2
  | Failed -> 3
  | Explicit -> 4

let begin_tx st ~thread =
  Cpu.exec st.State.cpu ~cost:st.State.params.Params.cpu_tx_begin;
  (* draw and register the read timestamp in one step — no yield between,
     so the local watermark can never pass a drawn-but-unregistered ts *)
  let read_ts =
    match st.State.params.Params.protocol with
    | Params.Validate_at_commit -> -1
    | Params.Snapshot ->
        let r = Clock.lo st.State.clock in
        State.register_read_ts st r;
        r
  in
  {
    st;
    thread;
    t_started = State.now st;
    span = Farm_obs.Obs.Span.start ~tid:thread st.State.obs;
    reads = Addr.Map.empty;
    writes = Addr.Map.empty;
    allocated = [];
    finished = false;
    read_ts;
  }

(* Drop the transaction's claim on its read timestamp (commit or abort —
   whichever settles it first); idempotent. *)
let release_read_ts tx =
  if tx.read_ts >= 0 then begin
    State.release_read_ts tx.st tx.read_ts;
    tx.read_ts <- -1
  end

(* {1 Region mapping} *)

let rec ensure_mapping st rid ~retries =
  match State.region_info st rid with
  | Some info -> Some info
  | None ->
      if retries <= 0 then None
      else begin
        let cm = st.State.config.Config.cm in
        match Comms.call st ~dst:cm ~timeout:(Time.ms 10) (Wire.Fetch_mapping { rid }) with
        | Ok (Wire.Mapping_reply { info = Some info }) ->
            Int_tbl.replace st.State.region_map rid info;
            Some info
        | Ok _ | Error _ ->
            Proc.sleep (Time.ms 1);
            Proc.check_cancelled ();
            ensure_mapping st rid ~retries:(retries - 1)
      end

let invalidate_mapping st rid = Int_tbl.remove st.State.region_map rid

(* {1 Object reads} *)

(* One-sided (or local) read of an object's header and [len] data bytes
   from the primary of its region. Returns [Ok None] when the target is not
   (or no longer) the active primary. *)
let read_at ?span st ~dst ~(addr : Addr.t) ~len : ((int64 * bytes) option, Farm_net.Fabric.error) result =
  if dst = st.State.id then begin
    Cpu.exec st.State.cpu ~cost:st.State.params.Params.cpu_local_read;
    match State.replica st addr.Addr.region with
    | Some rep when rep.State.role = State.Primary ->
        State.await_active rep;
        Ok (Some (Objmem.read_object rep ~off:addr.Addr.offset ~len))
    | _ -> Ok None
  end
  else
    Farm_net.Fabric.one_sided_read ?span st.State.fabric ~src:st.State.id ~dst
      ~bytes:(Obj_layout.header_size + len)
      (fun () ->
        match State.peer st dst with
        | None -> None
        | Some pst -> (
            match State.replica pst addr.Addr.region with
            | Some rep when rep.State.role = State.Primary && rep.State.active ->
                Some (Objmem.read_object rep ~off:addr.Addr.offset ~len)
            | _ -> None))

(* Versioned read with retries across lock conflicts and reconfiguration:
   returns the object's committed version and data. *)
let read_versioned ?span st ~(addr : Addr.t) ~len =
  let max_failures = 100 and max_locked = 400 in
  let rec attempt ~failures ~locked =
    Proc.check_cancelled ();
    if failures > max_failures then raise (Abort Failed)
    else if locked > max_locked then raise (Abort Conflict)
    else
      match ensure_mapping st addr.Addr.region ~retries:5 with
      | None -> raise (Abort Failed)
      | Some info -> (
          match read_at ?span st ~dst:info.Wire.primary ~addr ~len with
          | Error (`Unreachable | `Timeout) ->
              invalidate_mapping st addr.Addr.region;
              Proc.sleep (Time.us 500);
              attempt ~failures:(failures + 1) ~locked
          | Ok None ->
              invalidate_mapping st addr.Addr.region;
              Proc.sleep (Time.us 200);
              attempt ~failures:(failures + 1) ~locked
          | Ok (Some (header, data)) ->
              if Obj_layout.is_locked header then begin
                (* being committed right now; wait for the writer *)
                Proc.sleep (Time.us 30);
                attempt ~failures ~locked:(locked + 1)
              end
              else if not (Obj_layout.is_allocated header) then raise (Abort Not_allocated)
              else (Obj_layout.version header, data))
  in
  attempt ~failures:0 ~locked:0

(* {1 Snapshot reads (snapshot protocol)}

   A timestamp-ordered one-sided read: serve the newest version with
   commit timestamp <= the transaction's read timestamp, from the region
   head when it is old enough, from the primary's version chain otherwise.
   No version is recorded for validation wars — read-only transactions
   need none, and read-write transactions validate the served version at
   commit exactly like the baseline (a chain-served version can never
   still be current, so such reads abort conservatively). *)

let snap_read_at ?span st ~dst ~(addr : Addr.t) ~len ~ts :
    (Objmem.snap_read option, Farm_net.Fabric.error) result =
  if dst = st.State.id then begin
    Cpu.exec st.State.cpu ~cost:st.State.params.Params.cpu_local_read;
    match State.replica st addr.Addr.region with
    | Some rep when rep.State.role = State.Primary ->
        State.await_active rep;
        Ok (Some (Objmem.read_snapshot rep ~off:addr.Addr.offset ~len ~ts))
    | _ -> Ok None
  end
  else
    Farm_net.Fabric.one_sided_read ?span st.State.fabric ~src:st.State.id ~dst
      ~bytes:(Obj_layout.header_size + len)
      (fun () ->
        match State.peer st dst with
        | None -> None
        | Some pst -> (
            match State.replica pst addr.Addr.region with
            | Some rep when rep.State.role = State.Primary && rep.State.active ->
                Some (Objmem.read_snapshot rep ~off:addr.Addr.offset ~len ~ts)
            | _ -> None))

let read_snapshot_versioned ?span st ~(addr : Addr.t) ~len ~ts =
  let max_failures = 100 and max_locked = 400 in
  let rec attempt ~failures ~locked =
    Proc.check_cancelled ();
    if failures > max_failures then raise (Abort Failed)
    else if locked > max_locked then raise (Abort Conflict)
    else
      match ensure_mapping st addr.Addr.region ~retries:5 with
      | None -> raise (Abort Failed)
      | Some info -> (
          match snap_read_at ?span st ~dst:info.Wire.primary ~addr ~len ~ts with
          | Error (`Unreachable | `Timeout) ->
              invalidate_mapping st addr.Addr.region;
              Proc.sleep (Time.us 500);
              attempt ~failures:(failures + 1) ~locked
          | Ok None ->
              invalidate_mapping st addr.Addr.region;
              Proc.sleep (Time.us 200);
              attempt ~failures:(failures + 1) ~locked
          | Ok (Some (Objmem.Snap_locked)) ->
              (* the head is inside the snapshot but a write with an
                 unknown timestamp is landing; wait for the writer *)
              Proc.sleep (Time.us 30);
              attempt ~failures ~locked:(locked + 1)
          | Ok (Some (Objmem.Snap_value { version; value; allocated; from_chain })) ->
              Farm_obs.Obs.incr st.State.obs Farm_obs.Obs.C_snap_read;
              if from_chain then
                Farm_obs.Obs.incr st.State.obs Farm_obs.Obs.C_snap_chain_read;
              if not allocated then raise (Abort Not_allocated) else (version, value)
          | Ok (Some Objmem.Snap_none) ->
              Farm_obs.Obs.incr st.State.obs Farm_obs.Obs.C_snap_read;
              raise (Abort Not_allocated)
          | Ok (Some Objmem.Snap_below_floor) ->
              (* history truncated past our snapshot (only possible across
                 failures/re-replication): retry at a fresh timestamp *)
              raise (Abort Conflict))
  in
  attempt ~failures:0 ~locked:0

(* {1 Transaction API} *)

let read tx (addr : Addr.t) ~len =
  match Addr.Map.find_opt addr tx.writes with
  | Some w -> Bytes.sub w.w_value 0 (min len (Bytes.length w.w_value))
  | None -> (
      match Addr.Map.find_opt addr tx.reads with
      | Some r -> Bytes.sub r.r_value 0 (min len (Bytes.length r.r_value))
      | None ->
          let version, data =
            if tx.read_ts >= 0 then
              read_snapshot_versioned ~span:tx.span tx.st ~addr ~len ~ts:tx.read_ts
            else read_versioned ~span:tx.span tx.st ~addr ~len
          in
          Farm_obs.Obs.heat_access tx.st.State.obs ~region:addr.Addr.region;
          tx.reads <- Addr.Map.add addr { r_version = version; r_value = Bytes.copy data } tx.reads;
          data)

(* The version a write must lock at: the version observed by this
   transaction, fetching it if the object was not read first. A blind
   write deliberately observes the CURRENT header version even in
   snapshot mode — locking at the snapshot's (possibly archived) version
   would make the write abort forever once the head moves. *)
let observed_version tx (addr : Addr.t) =
  match Addr.Map.find_opt addr tx.reads with
  | Some r -> r.r_version
  | None ->
      let version, _ = read_versioned ~span:tx.span tx.st ~addr ~len:0 in
      version

let write tx (addr : Addr.t) data =
  match Addr.Map.find_opt addr tx.writes with
  | Some w -> w.w_value <- Bytes.copy data
  | None ->
      let version = observed_version tx addr in
      tx.writes <-
        Addr.Map.add addr
          { w_version = version; w_value = Bytes.copy data; w_alloc = Wire.Alloc_none }
          tx.writes

(* Allocate an object. The slot is tentatively taken from the primary's
   slab free list during execution; its allocation bit is set only at
   commit, so aborts and coordinator crashes lose nothing (§5.5). *)
let alloc tx ~size ?near ?region () =
  let st = tx.st in
  let rid =
    match (near, region) with
    | Some (a : Addr.t), _ -> Some a.Addr.region
    | None, Some rid -> Some rid
    | None, None ->
        (* prefer a region whose primary is this machine *)
        let local =
          Int_tbl.fold
            (fun rid info acc ->
              if info.Wire.primary = st.State.id then rid :: acc else acc)
            st.State.region_map []
        in
        (match local with
        | _ :: _ -> Some (List.nth local (Rng.int st.State.rng (List.length local)))
        | [] ->
            let all = Int_tbl.fold (fun rid _ acc -> rid :: acc) st.State.region_map [] in
            (match all with
            | [] -> None
            | _ -> Some (List.nth all (Rng.int st.State.rng (List.length all)))))
  in
  match rid with
  | None -> raise (Abort Out_of_space)
  | Some rid -> (
      (* follow this machine's spill chain: overflow regions allocated when
         earlier ones filled up *)
      let rec resolve_spill rid hops =
        if hops > 16 then rid
        else
          match Int_tbl.find_opt st.State.spill rid with
          | Some next -> resolve_spill next (hops + 1)
          | None -> rid
      in
      let try_alloc rid =
        match ensure_mapping st rid ~retries:5 with
        | None -> None
        | Some info ->
            if info.Wire.primary = st.State.id then begin
              match State.replica st rid with
              | Some rep ->
                  State.await_active rep;
                  Allocmgr.alloc_obj_local st rep ~size
              | None -> None
            end
            else begin
              match
                Comms.call st ~dst:info.Wire.primary ~timeout:(Time.ms 10)
                  (Wire.Alloc_obj_req { rid; size })
              with
              | Ok (Wire.Alloc_obj_reply { addr = Some addr; version }) -> Some (addr, version)
              | Ok _ | Error _ -> None
            end
      in
      let rid = resolve_spill rid 0 in
      let slot =
        match try_alloc rid with
        | Some s -> Some s
        | None -> (
            (* the region is full: transparently allocate a co-located
               overflow region through the CM (§3) and spill into it *)
            match Int_tbl.find_opt st.State.spill rid with
            | Some next -> try_alloc next
            | None -> (
                let cm = st.State.config.Config.cm in
                match
                  Comms.call st ~dst:cm ~timeout:(Time.ms 50)
                    (Wire.Alloc_region_req { locality = Some rid })
                with
                | Ok (Wire.Alloc_region_reply { info = Some info }) ->
                    Int_tbl.replace st.State.region_map info.Wire.rid info;
                    Int_tbl.replace st.State.spill rid info.Wire.rid;
                    try_alloc info.Wire.rid
                | Ok _ | Error _ -> None))
      in
      match slot with
      | None -> raise (Abort Out_of_space)
      | Some (addr, _) when Addr.Map.mem addr tx.writes ->
          (* a double-handout race handed this tx the same slot twice
             (possible while allocator recovery races a pre-failure
             tentative holder); treat as a conflict and retry *)
          raise (Abort Conflict)
      | Some (addr, version) ->
          tx.allocated <- (addr, size) :: tx.allocated;
          tx.writes <-
            Addr.Map.add addr
              { w_version = version; w_value = Bytes.make size '\000'; w_alloc = Wire.Alloc_set }
              tx.writes;
          addr)

let free tx (addr : Addr.t) =
  match Addr.Map.find_opt addr tx.writes with
  | Some w when w.w_alloc = Wire.Alloc_set ->
      (* allocated by this very transaction: cancel both operations and
         return the tentative slot to its region's primary *)
      tx.writes <- Addr.Map.remove addr tx.writes;
      tx.allocated <- List.filter (fun (a, _) -> not (Addr.equal a addr)) tx.allocated;
      (match State.region_info tx.st addr.Addr.region with
      | Some info -> Comms.send tx.st ~dst:info.Wire.primary (Wire.Free_slot_hint { addr })
      | None -> ())
  | Some w ->
      w.w_alloc <- Wire.Alloc_clear;
      w.w_value <- Bytes.empty
  | None ->
      let version = observed_version tx addr in
      tx.writes <-
        Addr.Map.add addr
          { w_version = version; w_value = Bytes.empty; w_alloc = Wire.Alloc_clear }
          tx.writes

(* Return tentatively allocated slots to their primaries after an abort. *)
let return_allocations tx =
  List.iter
    (fun ((addr : Addr.t), _) ->
      match State.region_info tx.st addr.Addr.region with
      | Some info ->
          if info.Wire.primary = tx.st.State.id then begin
            match State.replica tx.st addr.Addr.region with
            | Some rep -> Allocmgr.release_slot tx.st rep ~off:addr.Addr.offset
            | None -> ()
          end
          else Comms.send tx.st ~dst:info.Wire.primary (Wire.Free_slot_hint { addr })
      | None -> ())
    tx.allocated

(* {1 Lock-free reads (§3)}: optimized single-object read-only
   transactions; usually a single RDMA read with no commit phase. *)

let read_lockfree st (addr : Addr.t) ~len =
  let version, data = read_versioned st ~addr ~len in
  Stats.Counter.incr st.State.metrics.lockfree_reads;
  (version, data)
