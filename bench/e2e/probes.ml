open Farm_sim
open Farm_core

(* Layer probes: host nanoseconds (CPU time) per call of one public
   function, each the median of 5 timed batches after an untimed warm-up
   batch. They isolate the cost of a single layer, where the workloads
   measure all layers together. *)

(* [run n] performs [n] calls; returns host ns per call. *)
let ns_per_call ~n run =
  run n;
  Rep.median
    (List.init 5 (fun _ ->
         let t0 = Rep.cpu_s () in
         run n;
         (Rep.cpu_s () -. t0) *. 1e9 /. float_of_int n))

let heap_push_pop ~depth =
  let h = Heap.create () in
  let seq = ref 0 in
  let push () =
    incr seq;
    (* a scrambled key, so pushes land all over the heap *)
    Heap.push h ~key:(!seq * 7919 land 0xfffff) ~seq:!seq ()
  in
  for _ = 1 to depth do
    push ()
  done;
  ns_per_call ~n:200_000 (fun n ->
      for _ = 1 to n do
        push ();
        ignore (Heap.pop h)
      done)

let schedule_run () =
  let e = Engine.create () in
  ns_per_call ~n:100_000 (fun n ->
      for _ = 1 to n do
        Engine.schedule e ~at:(Engine.now e) ignore;
        Engine.run e
      done)

let suspend_resume () =
  let e = Engine.create () in
  ns_per_call ~n:100_000 (fun n ->
      Proc.spawn e (fun () ->
          for _ = 1 to n do
            Proc.yield ()
          done);
      Engine.run e)

let one_sided_read ~seed =
  let e = Engine.create () in
  let net : unit Farm_net.Fabric.t =
    Farm_net.Fabric.create e ~params:Farm_net.Params.default ~rng:(Rng.create seed)
  in
  Farm_net.Fabric.add_machine net ~id:0 ~cpu:(Cpu.create e ~threads:2);
  Farm_net.Fabric.add_machine net ~id:1 ~cpu:(Cpu.create e ~threads:2);
  ns_per_call ~n:20_000 (fun n ->
      Proc.spawn e (fun () ->
          for _ = 1 to n do
            ignore (Farm_net.Fabric.one_sided_read net ~src:0 ~dst:1 ~bytes:64 ignore)
          done);
      Engine.run e)

let must what = function
  | Ok v -> v
  | Error e -> Fmt.failwith "probe %s: %a" what Txn.pp_abort e

(* Two objects in two regions of a 3-machine cluster. *)
let two_objects ?(params = Params.default) ~seed () =
  let c = Cluster.create ~seed ~params ~machines:3 () in
  let r1 = Cluster.alloc_region_exn c in
  let r2 = Cluster.alloc_region_exn c in
  let a, b =
    Cluster.run_on c ~machine:0 (fun st ->
        must "setup"
          (Api.run st ~thread:0 (fun tx ->
               ( Txn.alloc tx ~size:16 ~region:r1.Wire.rid (),
                 Txn.alloc tx ~size:16 ~region:r2.Wire.rid () ))))
  in
  (c, a, b)

(* [n] calls of [txn] inside one process on machine 0, so the engine work
   each transaction causes, on every machine, is charged to it. *)
let in_process c txn n = Cluster.run_on c ~machine:0 (fun st -> for _ = 1 to n do txn st done)

let rw_txn ~seed =
  let c, a, b = two_objects ~seed () in
  let payload = Bytes.make 16 'x' in
  let txn st =
    must "rw"
      (Api.run st ~thread:0 (fun tx ->
           ignore (Txn.read tx a ~len:16);
           Txn.write tx a payload;
           Txn.write tx b payload))
  in
  let ns = ns_per_call ~n:500 (in_process c txn) in
  (* bytes per transaction over a window with no minor collection *)
  let bytes =
    Farm_obs.Allocmeter.with_quiet_heap (fun () ->
        let rec attempt tries =
          let per_tx, clean =
            Cluster.run_on c ~machine:0 (fun st ->
                let (), bytes, clean =
                  Farm_obs.Allocmeter.measure (fun () ->
                      for _ = 1 to 256 do
                        txn st
                      done)
                in
                (bytes /. 256., clean))
          in
          if clean || tries = 0 then per_tx else attempt (tries - 1)
        in
        attempt 3)
  in
  (ns, bytes)

let ro_txn_snapshot ~seed =
  let c, a, b =
    two_objects ~params:{ Params.default with Params.protocol = Params.Snapshot } ~seed ()
  in
  let txn st =
    must "ro"
      (Api.run st ~thread:0 (fun tx ->
           ignore (Txn.read tx a ~len:16);
           ignore (Txn.read tx b ~len:16)))
  in
  ns_per_call ~n:2_000 (in_process c txn)

let run ~seed =
  let m name value unit_ = { Rep.name; value; unit_; exact = false } in
  let rw_ns, rw_bytes = rw_txn ~seed in
  [
    m "sim.heap_push_pop_ns.d64" (heap_push_pop ~depth:64) "ns";
    m "sim.heap_push_pop_ns.d8192" (heap_push_pop ~depth:8192) "ns";
    m "sim.schedule_run_ns" (schedule_run ()) "ns";
    m "sim.suspend_resume_ns" (suspend_resume ()) "ns";
    m "net.one_sided_read_ns" (one_sided_read ~seed) "ns";
    m "commit.rw_txn_ns" rw_ns "ns";
    m "commit.rw_txn_bytes" rw_bytes "B";
    m "commit.ro_txn_snapshot_ns" (ro_txn_snapshot ~seed) "ns";
  ]
