open Farm_sim
open Farm_core
open Test_util

(* Snapshot-protocol (opacity via global time) invariants:

   - read-only transactions never abort and never enter VALIDATE, asserted
     against the observability counters, under concurrent writers;
   - opacity: a read-only transaction sees one consistent snapshot even
     mid-conflict, with writers transferring value between its reads;
   - determinism: the same seed yields byte-identical traces in each
     protocol mode;
   - the version chain itself, against a list model. *)

let test name fn = Alcotest.test_case name `Quick fn
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let snap_params = { quick_params with Params.protocol = Params.Snapshot }

let validate_phase_count c =
  match List.assoc_opt "validate" (Cluster.merged_phase_hists c) with
  | Some h -> Stats.Hist.count h
  | None -> 0

(* Keep [writers] transfer workers per machine moving value between random
   cell pairs until [stop]. *)
let spawn_transfers c ~cells ~stop =
  Array.iter
    (fun (st : State.t) ->
      for _ = 1 to 2 do
        Proc.spawn ~ctx:st.State.ctx c.Cluster.engine (fun () ->
            let rng = Rng.split st.State.rng in
            let n = Array.length cells in
            while not !stop do
              let a = Rng.int rng n in
              let b = (a + 1 + Rng.int rng (n - 1)) mod n in
              (match
                 Api.run_retry ~attempts:4 st ~thread:0 (fun tx ->
                     let va = read_int tx cells.(a) in
                     let vb = read_int tx cells.(b) in
                     write_int tx cells.(a) (va - 1);
                     write_int tx cells.(b) (vb + 1))
               with
              | Ok () | Error _ -> ());
              Proc.sleep (Time.us (20 + Rng.int rng 60))
            done)
      done)
    c.Cluster.machines

(* Read-only transactions under write pressure: every single attempt (no
   retry) must succeed, and the VALIDATE machinery must never engage. *)
let ro_never_aborts_no_validate () =
  let c = mk_cluster ~machines:5 ~params:snap_params () in
  let r = Cluster.alloc_region_exn c in
  let cells = alloc_cells c ~region:r.Wire.rid ~n:16 ~init:100 in
  let validate_before = validate_phase_count c in
  let ro_before = Cluster.merged_counter c Farm_obs.Obs.C_ro_commit in
  let stop = ref false in
  spawn_transfers c ~cells ~stop;
  let ro_runs = ref 0 and ro_failures = ref 0 in
  Array.iter
    (fun (st : State.t) ->
      Proc.spawn ~ctx:st.State.ctx c.Cluster.engine (fun () ->
          let rng = Rng.split st.State.rng in
          while not !stop do
            (* multi-object read-only transaction, single attempt *)
            (match
               Api.run st ~thread:1 (fun tx ->
                   let n = Array.length cells in
                   let i = Rng.int rng n in
                   read_int tx cells.(i)
                   + read_int tx cells.((i + 1) mod n)
                   + read_int tx cells.((i + 2) mod n)
                   |> ignore)
             with
            | Ok () -> incr ro_runs
            | Error _ ->
                incr ro_runs;
                incr ro_failures);
            Proc.sleep (Time.us 50)
          done))
    c.Cluster.machines;
  Cluster.run_for c ~d:(Time.ms 30);
  stop := true;
  Cluster.run_for c ~d:(Time.ms 2);
  check_bool "read-only transactions ran" true (!ro_runs > 100);
  check_int "zero read-only aborts" 0 !ro_failures;
  check_int "zero VALIDATE phases" 0 (validate_phase_count c - validate_before);
  check_int "zero validate-failed aborts" 0
    (Cluster.merged_counter c Farm_obs.Obs.C_abort_validate_failed);
  check_bool "read-only transactions committed locally" true
    (Cluster.merged_counter c Farm_obs.Obs.C_ro_commit - ro_before >= !ro_runs);
  check_bool "snapshot reads counted" true
    (Cluster.merged_counter c Farm_obs.Obs.C_snap_read > 0)

(* Opacity: a reader that straddles a conflicting writer still sees one
   consistent snapshot — the conserved sum — on every single attempt,
   DURING execution, not just at commit. A deliberate pause between the
   two reads widens the race window; version chains must serve the
   pre-conflict values. *)
let consistent_snapshot_mid_conflict () =
  let c = mk_cluster ~machines:5 ~params:snap_params () in
  let r = Cluster.alloc_region_exn c in
  let cells = alloc_cells c ~region:r.Wire.rid ~n:8 ~init:100 in
  let expect = 8 * 100 in
  let stop = ref false in
  spawn_transfers c ~cells ~stop;
  let reads = ref 0 and bad_sums = ref 0 in
  Array.iter
    (fun (st : State.t) ->
      Proc.spawn ~ctx:st.State.ctx c.Cluster.engine (fun () ->
          while not !stop do
            (match
               Api.run st ~thread:1 (fun tx ->
                   (* half the cells ... *)
                   let s = ref 0 in
                   for i = 0 to 3 do
                     s := !s + read_int tx cells.(i)
                   done;
                   (* ... a pause for writers to commit past us ... *)
                   Proc.sleep (Time.us 40);
                   (* ... and the other half, served from the chains *)
                   for i = 4 to 7 do
                     s := !s + read_int tx cells.(i)
                   done;
                   !s)
             with
            | Ok s ->
                incr reads;
                if s <> expect then incr bad_sums
            | Error _ -> incr bad_sums);
            Proc.sleep (Time.us 30)
          done))
    c.Cluster.machines;
  Cluster.run_for c ~d:(Time.ms 40);
  stop := true;
  Cluster.run_for c ~d:(Time.ms 2);
  check_bool "snapshot sums observed" true (!reads > 100);
  check_int "every mid-conflict snapshot consistent" 0 !bad_sums;
  check_bool "some reads served from version chains" true
    (Cluster.merged_counter c Farm_obs.Obs.C_snap_chain_read > 0);
  (* the final state is still conserved *)
  check_int "sum conserved" expect (sum_cells c ~machine:0 cells)

(* Version chains are truncated once the cluster watermark passes them:
   the archive must not grow without bound under steady writes. *)
let chains_truncated () =
  let c = mk_cluster ~machines:5 ~params:snap_params () in
  let r = Cluster.alloc_region_exn c in
  let cells = alloc_cells c ~region:r.Wire.rid ~n:8 ~init:100 in
  let stop = ref false in
  spawn_transfers c ~cells ~stop;
  Cluster.run_for c ~d:(Time.ms 30);
  stop := true;
  Cluster.run_for c ~d:(Time.ms 2);
  check_bool "watermark truncation ran" true
    (Cluster.merged_counter c Farm_obs.Obs.C_wm_trim > 0);
  (* every live chain node's timestamp is at or above its floor *)
  Array.iter
    (fun (st : State.t) ->
      Hashtbl.iter
        (fun _ (rep : State.replica) ->
          match rep.State.vc with
          | Some vc -> check_bool "chain bounded" true (Verchain.nodes_live vc < 10_000)
          | None -> ())
        st.State.nv.replicas)
    c.Cluster.machines

(* Same seed, same mode => byte-identical traces (the explorer's whole
   event trace and flight recorder), in BOTH protocol modes. *)
let deterministic_per_mode () =
  List.iter
    (fun protocol ->
      let opts =
        { Farm_fault.Explorer.default_opts with duration = Time.ms 20; protocol }
      in
      let o1 = Farm_fault.Explorer.run_one ~opts 7 in
      let o2 = Farm_fault.Explorer.run_one ~opts 7 in
      check_bool "same committed count" true
        (o1.Farm_fault.Explorer.committed = o2.Farm_fault.Explorer.committed);
      check_bool "byte-identical trace" true
        (o1.Farm_fault.Explorer.trace = o2.Farm_fault.Explorer.trace);
      check_bool "byte-identical flight recorder" true
        (o1.Farm_fault.Explorer.recorder = o2.Farm_fault.Explorer.recorder))
    [ Params.Validate_at_commit; Params.Snapshot ]

(* {1 The version chain against a list model}

   Random [archive] / [find] / [trim] sequences over two offsets. A
   version's commit timestamp is ten times its number, so newest by
   version is newest by timestamp, as on a replica. Per offset the model
   is a list of [(version, value, allocated)] newest first; an archive of
   a version already present is dropped, wherever it lands. [find] must
   return the newest version with [ts <= q]; [trim] must keep every node
   with [ts >= wm] plus the newest older one, count the rest, and raise
   the floor. Writing into the bytes [find] returned must leave the chain
   unchanged. *)

type chain_op =
  | Archive of { off : int; version : int; value : string; allocated : bool }
  | Find of { off : int; q : int }
  | Trim of int

let show_chain_op = function
  | Archive { off; version; value; allocated } ->
      Printf.sprintf "archive off=%d v=%d %S %b" off version value allocated
  | Find { off; q } -> Printf.sprintf "find off=%d q=%d" off q
  | Trim wm -> Printf.sprintf "trim wm=%d" wm

let ts_of version = 10 * version

let chain_op_gen =
  let open QCheck.Gen in
  frequency
    [
      ( 5,
        map4
          (fun off version value allocated -> Archive { off; version; value; allocated })
          (int_bound 1) (int_bound 30)
          (string_size ~gen:(char_range 'a' 'z') (int_bound 6))
          bool );
      (3, map2 (fun off q -> Find { off; q }) (int_bound 1) (int_bound 320));
      (1, map (fun wm -> Trim wm) (int_bound 320));
    ]

(* newest first, a present version dropped *)
let model_archive chain (version, value, allocated) =
  if List.exists (fun (v, _, _) -> v = version) chain then chain
  else
    let newer, older = List.partition (fun (v, _, _) -> v > version) chain in
    newer @ ((version, value, allocated) :: older)

let model_find chain q = List.find_opt (fun (v, _, _) -> ts_of v <= q) chain

let model_trim chain wm =
  let keep, below = List.partition (fun (v, _, _) -> ts_of v >= wm) chain in
  match below with [] -> (keep, 0) | newest :: rest -> (keep @ [ newest ], List.length rest)

let verchain_matches_model =
  QCheck.Test.make ~name:"version chain matches a list model" ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_chain_op ops))
       QCheck.Gen.(list_size (int_bound 60) chain_op_gen))
    (fun ops ->
      let vc = Verchain.create ~floor:0 in
      let model = Array.make 2 [] in
      let floor = ref 0 in
      let found_ok off q =
        match (Verchain.find vc ~off ~ts:q, model_find model.(off) q) with
        | None, None -> true
        | Some (v, b, a), Some (v', value, a') ->
            let ok = v = v' && Bytes.to_string b = value && a = a' in
            Bytes.fill b 0 (Bytes.length b) '#';
            ok
        | _ -> false
      in
      let step ok = function
        | Archive { off; version; value; allocated } ->
            Verchain.archive vc ~off ~version ~ts:(ts_of version) ~allocated
              (Bytes.of_string value);
            model.(off) <- model_archive model.(off) (version, value, allocated);
            ok
        | Find { off; q } -> ok && found_ok off q && found_ok off q
        | Trim wm ->
            let dropped = Verchain.trim vc ~wm in
            let expected =
              if wm <= !floor then 0
              else begin
                floor := wm;
                let n = ref 0 in
                Array.iteri
                  (fun off chain ->
                    let kept, d = model_trim chain wm in
                    model.(off) <- kept;
                    n := !n + d)
                  model;
                !n
              end
            in
            ok && dropped = expected
            && Verchain.floor vc = !floor
            && Verchain.nodes_live vc = List.length model.(0) + List.length model.(1)
      in
      let ok = List.fold_left step true ops in
      (* every version present, in place, with its first value *)
      ok && List.for_all (fun off -> List.for_all (found_ok off) (List.init 321 Fun.id)) [ 0; 1 ])

let suites =
  [
    ( "opacity",
      [
        test "RO transactions never abort, never VALIDATE" ro_never_aborts_no_validate;
        test "consistent snapshot mid-conflict" consistent_snapshot_mid_conflict;
        test "version chains truncated at the watermark" chains_truncated;
        test "same seed, same mode: identical traces" deterministic_per_mode;
        QCheck_alcotest.to_alcotest verchain_matches_model;
      ] );
  ]
