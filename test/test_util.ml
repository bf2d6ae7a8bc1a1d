open Farm_sim
open Farm_core

(* Shared helpers for cluster-level tests. *)

let quick_params =
  { Params.default with Params.lease_duration = Time.ms 5; region_size = 1 lsl 18 }

let mk_cluster ?(seed = 42) ?(machines = 5) ?(params = quick_params) ?domains () =
  Cluster.create ~seed ~params ?domains ~machines ()

(* An integer cell stored in a FaRM object. *)
let read_int tx addr = Int64.to_int (Bytes.get_int64_le (Txn.read tx addr ~len:8) 0)

let write_int tx addr v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  Txn.write tx addr b

(* Allocate [n] cells initialized to [init] in [region], from machine 0. *)
let alloc_cells cluster ~region ~n ~init =
  Cluster.run_on cluster ~machine:0 (fun st ->
      match
        Api.run_retry st ~thread:0 (fun tx ->
            Array.init n (fun _ ->
                let a = Txn.alloc tx ~size:8 ~region () in
                write_int tx a init;
                a))
      with
      | Ok addrs -> addrs
      | Error e -> Fmt.failwith "alloc_cells: %a" Txn.pp_abort e)

let read_cell cluster ~machine addr =
  Cluster.run_on cluster ~machine (fun st ->
      match Api.run_retry st ~thread:0 (fun tx -> read_int tx addr) with
      | Ok v -> v
      | Error e -> Fmt.failwith "read_cell: %a" Txn.pp_abort e)

let sum_cells cluster ~machine addrs =
  Cluster.run_on cluster ~machine (fun st ->
      match
        Api.run_retry st ~thread:0 (fun tx ->
            Array.fold_left (fun acc a -> acc + read_int tx a) 0 addrs)
      with
      | Ok v -> v
      | Error e -> Fmt.failwith "sum_cells: %a" Txn.pp_abort e)

(* Spawn [fn] on a machine and return a getter to its eventual result;
   unlike [Cluster.run_on] this does not drive the engine. *)
let background cluster ~machine fn =
  let st = Cluster.machine cluster machine in
  let result = ref None in
  Proc.spawn ~ctx:st.State.ctx cluster.Cluster.engine (fun () -> result := Some (fn st));
  fun () -> !result

(* Replica memory of a region on a machine, for byte-identity checks. *)
(* The events of a Perfetto trace export, parsed. *)
let trace_events dump = Farm_harness.Json.(to_list (member "traceEvents" (of_string dump)))

let replica_mem cluster ~machine rid =
  match State.replica (Cluster.machine cluster machine) rid with
  | Some rep -> Some rep.State.mem
  | None -> None

let surviving_machine _cluster ~not_in =
  let rec go m = if List.mem m not_in then go (m + 1) else m in
  go 0

(* The slots of hash-table bucket [b]'s chain, one array per chained
   bucket, head first: each slot as (used, key, value) read straight from
   the bucket bytes, so a table's exact layout can be compared. *)
let hashtable_chain tx (t : Farm_kv.Hashtable.t) b =
  let esz = Farm_kv.Hashtable.entry_size t in
  let rec go addr acc =
    let data = Txn.read tx addr ~len:(Farm_kv.Hashtable.bucket_data_size t) in
    let slots =
      Array.init t.slots (fun i ->
          ( Bytes.get data (i * esz) <> '\000',
            Bytes.sub data ((i * esz) + 1) t.ksize,
            Bytes.sub data ((i * esz) + 1 + t.ksize) t.vsize ))
    in
    match Farm_kv.Codec.get_addr data (t.slots * esz) with
    | Some next -> go next (slots :: acc)
    | None -> List.rev (slots :: acc)
  in
  go t.buckets.(b) []

(* [n] machine states over one fabric, as [Cluster.create] builds them but
   with no node started: no lease, log-processing or CM process runs and
   no handler is installed, so the engine queues only what a test puts
   there. *)
let bare_states n =
  let engine = Engine.create () in
  let rng = Rng.create 5 in
  let fabric = Farm_net.Fabric.create engine ~params:Farm_net.Params.default ~rng:(Rng.split rng) in
  let zk = Farm_coord.Zk.create engine ~rng:(Rng.split rng) ~replicas:1 in
  let clock = Clock.create engine ~eps:Params.clock_eps in
  let members = List.init n Fun.id in
  let config =
    Config.make ~id:1 ~members ~domains:(List.map (fun m -> (m, m)) members) ~cm:0
  in
  let directory = Int_tbl.create n in
  let log = Farm_obs.Obs.create_log () in
  Array.init n (fun id ->
      let cpu = Cpu.create engine ~threads:2 in
      let obs = Farm_obs.Obs.create ~log engine ~machine:id in
      Farm_net.Fabric.add_machine ~obs fabric ~id ~cpu;
      let nv =
        {
          State.bank = Farm_nvram.Bank.create ();
          replicas = Hashtbl.create 1;
          logs_in = Hashtbl.create 1;
        }
      in
      State.create ~id ~engine ~rng:(Rng.split rng) ~params:Params.default ~fabric ~zk ~cpu
        ~nv ~clock:(Clock.handle clock ~offset_ns:0) ~config ~directory ~obs)
