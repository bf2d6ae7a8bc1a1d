(* Recovery demo: kill a machine under load and watch FaRM recover.

   Builds a 6-machine cluster with a bank workload, kills the primary of
   the accounts' region mid-run, and shows:
   - the recovery milestones (suspect -> probe -> zookeeper -> config
     commit -> all regions active -> data recovery),
   - that committed transactions survive the failure (money conserved),
   - the throughput timeline around the failure.

   Run with: dune exec examples/recovery_demo.exe *)

open Farm_sim
open Farm_core
module Obs = Farm_obs.Obs

let n_machines = 6
let n_accounts = 48
let initial_balance = 1_000
let kill_at = Time.ms 80
let run_until = Time.ms 400

let read_balance tx addr =
  Int64.to_int (Bytes.get_int64_le (Txn.read tx addr ~len:8) 0)

let write_balance tx addr v =
  let data = Bytes.create 8 in
  Bytes.set_int64_le data 0 (Int64.of_int v);
  Txn.write tx addr data

let () =
  let params = { Params.default with Params.lease_duration = Time.ms 5 } in
  let cluster = Cluster.create ~machines:n_machines ~params () in
  let region = Cluster.alloc_region_exn ~from:1 cluster in
  let victim = region.Wire.primary in
  Fmt.pr "region %d: primary m%d backups %a — will kill m%d at %a@." region.Wire.rid
    victim
    Fmt.(list ~sep:(any ",") int)
    region.Wire.backups victim Time.pp kill_at;

  let accounts =
    Cluster.run_on cluster ~machine:1 (fun st ->
        match
          Api.run st ~thread:0 (fun tx ->
              List.init n_accounts (fun _ ->
                  let addr = Txn.alloc tx ~size:8 ~region:region.Wire.rid () in
                  write_balance tx addr initial_balance;
                  addr))
        with
        | Ok addrs -> Array.of_list addrs
        | Error e -> Fmt.failwith "setup failed: %a" Txn.pp_abort e)
  in

  (* open-ended transfer workers on the machines that survive *)
  let stop = ref false in
  Array.iter
    (fun (st : State.t) ->
      if st.State.id <> victim then
        for w = 0 to 3 do
          Proc.spawn ~ctx:st.State.ctx st.State.engine (fun () ->
              let thread = w mod st.State.params.Params.threads_per_machine in
              while not !stop do
                let a = Rng.int st.State.rng n_accounts in
                let b = (a + 1 + Rng.int st.State.rng (n_accounts - 1)) mod n_accounts in
                (match
                   Api.run_retry ~attempts:8 st ~thread (fun tx ->
                       let va = read_balance tx accounts.(a) in
                       let vb = read_balance tx accounts.(b) in
                       if va > 0 then begin
                         write_balance tx accounts.(a) (va - 1);
                         write_balance tx accounts.(b) (vb + 1)
                       end)
                 with
                | Ok () | Error _ -> ());
                Proc.sleep (Time.us 200)
              done)
        done)
    cluster.Cluster.machines;

  (* schedule the kill *)
  Engine.schedule cluster.Cluster.engine ~at:kill_at (fun () -> Cluster.kill cluster victim);
  Cluster.run_until cluster ~at:run_until;
  stop := true;
  Cluster.run_for cluster ~d:(Time.ms 10);

  Fmt.pr "@.milestones:@.";
  List.iter
    (fun (r : Obs.record) ->
      if Obs.is_milestone r.r_kind && r.r_kind <> Obs.K_ms_region_recovered then
        Fmt.pr "  %-16s m%d  %a@." (Obs.milestone_tag r.r_kind ~a:r.r_a) r.r_machine Time.pp
          (Time.ns r.r_at))
    (Obs.log_records cluster.Cluster.log);

  (* audit from a surviving machine *)
  let total =
    Cluster.run_on cluster ~machine:(if victim = 1 then 2 else 1) (fun st ->
        match
          Api.run_retry st ~thread:0 (fun tx ->
              Array.fold_left (fun acc a -> acc + read_balance tx a) 0 accounts)
        with
        | Ok v -> v
        | Error e -> Fmt.failwith "audit failed: %a" Txn.pp_abort e)
  in
  Fmt.pr "@.audit after failure: total=%d expected=%d — %s@." total
    (n_accounts * initial_balance)
    (if total = n_accounts * initial_balance then "OK" else "MONEY NOT CONSERVED");

  (* throughput timeline around the failure *)
  let bins = Cluster.throughput_series cluster ~until:run_until in
  Fmt.pr "@.throughput (committed tx / ms):@.";
  let step = 10 in
  let i = ref 0 in
  while !i < Array.length bins - step do
    let s = ref 0 in
    for j = !i to !i + step - 1 do
      s := !s + bins.(j)
    done;
    Fmt.pr "  t=%3dms  %4d tx  %s@." !i (!s)
      (String.make (min 60 (!s / 4)) '#');
    i := !i + step
  done;
  Fmt.pr "committed=%d aborted=%d@." (Cluster.total_committed cluster)
    (Cluster.total_aborted cluster);
  if total <> n_accounts * initial_balance then exit 1
