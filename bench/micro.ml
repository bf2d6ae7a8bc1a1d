open Bechamel
open Toolkit

(* Bechamel micro-benchmarks of the hot data structures: real wall-clock
   cost per operation for the pieces every simulated transaction touches.
   These are host-machine numbers, not simulated time.

   Each row also reports heap bytes allocated per operation, measured
   directly as the [Gc.allocated_bytes] delta over a fixed repetition
   count: the commit hot path is engineered to keep this low, and
   [commit.txn_commit] is the end-to-end figure the allocation test
   (test_alloc) holds to a budget. *)

let tests () =
  let rng = Farm_sim.Rng.create 1 in
  let hist = Farm_sim.Stats.Hist.create () in
  let heap = Farm_sim.Heap.create () in
  let seq = ref 0 in
  let mem = Farm_nvram.Pagemem.create 4096 in
  let header = Farm_core.Obj_layout.make ~locked:false ~allocated:true ~version:3 in
  Farm_core.Obj_layout.set mem ~off:64 header;
  let engine = Farm_sim.Engine.create () in
  let record =
    {
      Farm_core.Wire.payload =
        Farm_core.Wire.Commit_primary
          { txid = Farm_core.Txid.make ~config:1 ~machine:0 ~thread:0 ~local:1; ts = 0 };
      truncations = [];
      low_bound = 0;
      cfg = 1;
    }
  in
  (* a private two-machine fabric for the verb benches *)
  let net = Farm_net.Fabric.create engine ~params:Farm_net.Params.default ~rng in
  Farm_net.Fabric.add_machine net ~id:0 ~cpu:(Farm_sim.Cpu.create engine ~threads:2);
  Farm_net.Fabric.add_machine net ~id:1 ~cpu:(Farm_sim.Cpu.create engine ~threads:2);
  (* a real 3-machine cluster for the end-to-end commit bench: one
     cross-region two-object update per operation, pumped to completion *)
  let open Farm_core in
  let c = Cluster.create ~machines:3 () in
  let r1 = Cluster.alloc_region_exn c in
  let r2 = Cluster.alloc_region_exn c in
  let a, b =
    Cluster.run_on c ~machine:0 (fun st ->
        match
          Api.run st ~thread:0 (fun tx ->
              let a = Txn.alloc tx ~size:16 ~region:r1.Wire.rid () in
              let b = Txn.alloc tx ~size:16 ~region:r2.Wire.rid () in
              (a, b))
        with
        | Ok v -> v
        | Error e -> Fmt.failwith "micro: setup tx failed: %a" Txn.pp_abort e)
  in
  (* a second cluster running the snapshot protocol, for the read-only
     transaction rows: same shape, different commit path *)
  let cs =
    Cluster.create ~machines:3
      ~params:{ Params.default with Params.protocol = Params.Snapshot }
      ()
  in
  let rs = Cluster.alloc_region_exn cs in
  let sa, sb =
    Cluster.run_on cs ~machine:0 (fun st ->
        match
          Api.run st ~thread:0 (fun tx ->
              let a = Txn.alloc tx ~size:16 ~region:rs.Wire.rid () in
              let b = Txn.alloc tx ~size:16 ~region:rs.Wire.rid () in
              (a, b))
        with
        | Ok v -> v
        | Error e -> Fmt.failwith "micro: snapshot setup tx failed: %a" Txn.pp_abort e)
  in
  let ro_txn cl x y =
    Cluster.run_on cl ~machine:0 (fun st ->
        match
          Api.run st ~thread:0 (fun tx ->
              ignore (Txn.read tx x ~len:16);
              ignore (Txn.read tx y ~len:16))
        with
        | Ok () -> ()
        | Error e -> Fmt.failwith "micro: read-only tx failed: %a" Txn.pp_abort e)
  in
  let payload = Bytes.make 16 'x' in
  let fnv_key = Bytes.make 16 'k' in
  [
    ("rng.int", fun () -> ignore (Farm_sim.Rng.int rng 1024));
    ("hist.record", fun () -> Farm_sim.Stats.Hist.record hist 12345);
    ( "heap.push_pop",
      fun () ->
        incr seq;
        Farm_sim.Heap.push heap ~key:(Farm_sim.Rng.int rng 100000) ~seq:!seq ();
        ignore (Farm_sim.Heap.pop heap) );
    ( "objlayout.header_rmw",
      fun () ->
        let h = Farm_core.Obj_layout.get mem ~off:64 in
        Farm_core.Obj_layout.set mem ~off:64
          (Farm_core.Obj_layout.with_version h (Farm_core.Obj_layout.version h + 1)) );
    ( "engine.schedule_run",
      fun () ->
        Farm_sim.Engine.schedule engine ~at:(Farm_sim.Engine.now engine) (fun () -> ());
        Farm_sim.Engine.run engine );
    ( "proc.suspend_resume",
      fun () ->
        Farm_sim.Proc.spawn engine (fun () -> Farm_sim.Proc.yield ());
        Farm_sim.Engine.run engine );
    ( "fabric.one_sided_write",
      fun () ->
        Farm_sim.Proc.spawn engine (fun () ->
            ignore
              (Farm_net.Fabric.one_sided_write net ~src:0 ~dst:1 ~bytes:64 (fun () -> ())));
        Farm_sim.Engine.run engine );
    ("wire.record_bytes", fun () -> ignore (Farm_core.Wire.record_bytes record));
    ("codec.fnv1a_16B", fun () -> ignore (Farm_kv.Codec.fnv1a fnv_key));
    ( "commit.txn_commit",
      fun () ->
        Cluster.run_on c ~machine:0 (fun st ->
            match
              Api.run st ~thread:0 (fun tx ->
                  ignore (Txn.read tx a ~len:16);
                  Txn.write tx a payload;
                  Txn.write tx b payload)
            with
            | Ok () -> ()
            | Error e -> Fmt.failwith "micro: commit tx failed: %a" Txn.pp_abort e) );
    (* a two-object read-only transaction, both protocol variants: the
       baseline validates at commit, the snapshot protocol reads at its
       timestamp and commits locally *)
    ("commit.ro_txn_baseline", fun () -> ro_txn c a b);
    ("commit.ro_txn_snapshot", fun () -> ro_txn cs sa sb);
  ]

(* Bytes allocated per operation, measured over a GC-quiet window (see
   Farm_obs.Allocmeter) after a warm-up pass that fills caches, pools and
   mappings. *)
let bytes_per_op fn = Farm_obs.Allocmeter.bytes_per_op fn

let run () =
  Bench_util.header "Micro-benchmarks (host wall clock, via Bechamel)"
    "cost per operation of the simulator's hot paths";
  let named = tests () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:None () in
  let grouped =
    Test.make_grouped ~name:"micro" ~fmt:"%s.%s"
      (List.map (fun (name, fn) -> Test.make ~name (Staged.stage fn)) named)
  in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let results = Analyze.all ols instance raw in
  let allocs =
    List.map (fun (name, fn) -> ("micro." ^ name, bytes_per_op fn)) named
  in
  let rows = Hashtbl.fold (fun name v acc -> (name, v) :: acc) results [] in
  Fmt.pr "  %-32s %10s %12s@." "" "ns/op" "bytes/op";
  List.iter
    (fun (name, v) ->
      let bytes = List.assoc_opt name allocs in
      let pp_bytes ppf = function
        | Some b -> Fmt.pf ppf "%12.1f" b
        | None -> Fmt.pf ppf "%12s" "-"
      in
      match Analyze.OLS.estimates v with
      | Some [ ns ] -> Fmt.pr "  %-32s %10.1f %a@." name ns pp_bytes bytes
      | _ -> Fmt.pr "  %-32s %10s %a@." name "-" pp_bytes bytes)
    (List.sort compare rows)
