open Farm_sim

(* Bulk data recovery (§5.4).

   A new backup starts from a freshly zeroed replica and re-replicates the
   region by reading blocks from the primary with one-sided RDMA. Recovery
   only starts after ALL-REGIONS-ACTIVE (it is not needed to resume normal
   operation) and is paced: each worker schedules its next read at a random
   point within [recovery_interval] after the start of the previous one, so
   foreground throughput is unaffected (Figures 9b/10b); the aggressive
   settings of Figures 14/15 raise block size and in-flight reads.

   Recovered objects are examined slab block by slab block (the replicated
   block headers give each block's object size) and applied only when the
   recovered version exceeds the local one, so races with concurrent new
   transactions — which do reach this backup's log — are benign. *)

(* Apply one fully-assembled slab block to the local replica. *)
let apply_block (rep : State.replica) ~block (data : Bytes.t) =
  match Hashtbl.find_opt rep.State.block_headers block with
  | None -> ()  (* never carved into a slab: nothing live in it *)
  | Some slot ->
      let base = block * Params.block_size in
      let count = Bytes.length data / slot in
      for i = 0 to count - 1 do
        let rel = i * slot in
        let local_off = base + rel in
        let recovered = Bytes.get_int64_le data rel in
        let local = Obj_layout.get rep.State.mem ~off:local_off in
        if Obj_layout.version recovered > Obj_layout.version local then begin
          (* install with the lock bit cleared: if the source was mid-commit
             the commit reaches this backup through its own log *)
          Farm_nvram.Pagemem.blit_from_bytes data rel rep.State.mem local_off slot;
          Obj_layout.set rep.State.mem ~off:local_off
            (Obj_layout.with_locked recovered false)
        end
      done

(* A fresh backup's zeroed replica may predate every slab in the region:
   header replication (§5.5) only covers blocks carved after it joined and
   the primary-side sync only runs on primary change. Fetch the primary's
   replicated header table before copying so [apply_block] knows every
   block's object size. *)
let fetch_block_headers st (rep : State.replica) =
  match State.region_info st rep.State.rid with
  | None -> false
  | Some info -> (
      match
        Farm_net.Fabric.one_sided_read st.State.fabric ~src:st.State.id
          ~dst:info.Wire.primary
          ~bytes:(8 * (1 + Hashtbl.length rep.State.block_headers))
          (fun () ->
            match State.peer st info.Wire.primary with
            | None -> None
            | Some pst -> (
                match State.replica pst rep.State.rid with
                | Some prep when prep.State.role = State.Primary ->
                    Some
                      (Hashtbl.fold
                         (fun b s acc -> (b, s) :: acc)
                         prep.State.block_headers [])
                | _ -> None))
      with
      | Ok (Some headers) ->
          List.iter
            (fun (b, s) ->
              if not (Hashtbl.mem rep.State.block_headers b) then
                Hashtbl.replace rep.State.block_headers b s)
            headers;
          true
      | Ok None | Error _ ->
          (* primary moved or died; the caller retries or the next
             reconfiguration re-assigns data recovery *)
          false)

let read_chunk st ~dst ~rid ~base ~len =
  Farm_net.Fabric.one_sided_read st.State.fabric ~src:st.State.id ~dst ~bytes:len
    (fun () ->
      match State.peer st dst with
      | None -> None
      | Some pst -> (
          match State.replica pst rid with
          | Some prep when prep.State.role = State.Primary ->
              Some (Farm_nvram.Pagemem.sub prep.State.mem base len)
          | _ -> None))

(* Recover one region at a new backup: slab blocks are split across worker
   threads; each block is fetched in [recovery_block]-sized reads
   ([recovery_concurrency] in flight), assembled, and applied. *)
let rec recover_region st (rep : State.replica) ~on_done =
  let p = st.State.params in
  (* a region down to one surviving replica is re-replicated aggressively:
     bigger reads, more in flight, no pacing (§6.4) *)
  let critical =
    match State.region_info st rep.State.rid with
    | Some info -> info.Wire.critical
    | None -> false
  in
  let p =
    if critical then
      {
        p with
        Params.recovery_block = max p.Params.recovery_block (32 * 1024);
        recovery_concurrency = max p.Params.recovery_concurrency 4;
        recovery_interval = Time.min p.Params.recovery_interval (Time.us 100);
      }
    else p
  in
  let bs = Params.block_size in
  let nblocks = (p.Params.region_size + bs - 1) / bs in
  let chunk = min p.Params.recovery_block bs in
  let chunks_per_block = (bs + chunk - 1) / chunk in
  let workers = min p.Params.threads_per_machine 8 in
  let per_worker = (nblocks + workers - 1) / workers in
  let remaining = ref workers in
  let primary () =
    match State.region_info st rep.State.rid with
    | Some info -> Some info.Wire.primary
    | None -> None
  in
  let failed = ref false in
  Proc.spawn ~ctx:st.State.ctx st.State.engine (fun () ->
      if not (fetch_block_headers st rep) then failed := true;
      for w = 0 to workers - 1 do
        Proc.spawn ~ctx:st.State.ctx st.State.engine (fun () ->
        let lo = w * per_worker and hi = min nblocks ((w + 1) * per_worker) in
        for block = lo to hi - 1 do
          Proc.check_cancelled ();
          let buf = Bytes.make bs '\000' in
          let got = ref true in
          let c = ref 0 in
          while !c < chunks_per_block do
            let started = State.now st in
            let batch = min p.Params.recovery_concurrency (chunks_per_block - !c) in
            let jobs =
              List.init batch (fun k () ->
                  let off = (!c + k) * chunk in
                  let base = (block * bs) + off in
                  let len = min chunk (bs - off) in
                  match primary () with
                  | None -> got := false
                  | Some dst -> (
                      match read_chunk st ~dst ~rid:rep.State.rid ~base ~len with
                      | Ok (Some data) -> Bytes.blit data 0 buf off len
                      | Ok None | Error _ ->
                          (* primary moved or died; this block is skipped
                             now and the next reconfiguration re-assigns
                             data recovery *)
                          got := false;
                          Proc.sleep (Time.ms 1)))
            in
            Comms.par_iter st jobs;
            c := !c + batch;
            (* pacing: the next read starts at a random point within the
               interval after the start of the previous one *)
            if Time.( > ) p.Params.recovery_interval Time.zero then begin
              let window = Time.to_ns p.Params.recovery_interval in
              let next =
                Time.add started
                  (Time.ns ((window / 2) + Rng.int st.State.rng (max 1 (window / 2))))
              in
              if Time.( > ) next (State.now st) then Proc.sleep_until next
            end
          done;
          if !got then begin
            Cpu.exec st.State.cpu ~cost:(Time.ns (100 * (bs / 256)));
            apply_block rep ~block buf
          end
          else failed := true
        done;
        decr remaining;
        if !remaining = 0 then begin
          if !failed then
            (* part of the region was unreadable (primary unreachable
               mid-recovery): keep the replica marked fresh and retry after
               a pacing delay — re-reading already-applied blocks is benign
               under [apply_block]'s version check *)
            Proc.spawn ~ctx:st.State.ctx st.State.engine (fun () ->
                Proc.sleep (Time.ms 2);
                recover_region st rep ~on_done)
          else begin
            rep.State.fresh_backup <- false;
            (* the copied blocks carry only current versions, no history:
               the chain cannot serve snapshots older than "now" *)
            Objmem.floor_past_reads st rep;
            on_done ()
          end
        end)
      done)

(* Entry point: ALL-REGIONS-ACTIVE received — start data recovery for every
   freshly-assigned replica, and allocator recovery (§5.5) for every
   promoted primary. *)
let on_all_regions_active st =
  let cfg = st.State.config.Config.id in
  let fresh =
    Hashtbl.fold
      (fun _ (rep : State.replica) acc -> if rep.State.fresh_backup then rep :: acc else acc)
      st.State.nv.replicas []
  in
  if fresh <> [] then
    Farm_obs.Obs.event st.State.obs Farm_obs.Obs.K_ms_data_rec_start ~a:0 ~b:0 ~c:0;
  List.iter
    (fun (rep : State.replica) ->
      recover_region st rep ~on_done:(fun () ->
          Comms.send st ~dst:st.State.config.Config.cm
            (Wire.Region_recovered { cfg; rid = rep.State.rid })))
    fresh;
  (* allocator recovery: rebuild slab free lists on new primaries, paced *)
  Hashtbl.iter
    (fun _ (rep : State.replica) ->
      if rep.State.role = State.Primary && not rep.State.free_lists_valid then
        Allocmgr.recover_free_lists st rep ~on_done:(fun () -> ()))
    st.State.nv.replicas
