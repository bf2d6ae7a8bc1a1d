open Farm_sim
open Farm_core
open Farm_kv

(* The key-value lookup workload of §6.3 "Read performance": 16-byte keys,
   32-byte values, uniform access, lock-free reads — normally one one-sided
   RDMA read per lookup. *)

type t = { table : Hashtable.t; keys : int }

let key16 v =
  let b = Bytes.make 16 '\000' in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  b

let create cluster ~keys ~regions =
  let rids = Array.map (fun i -> i.Wire.rid) (Cluster.alloc_regions cluster regions) in
  let table =
    Hashtable.create cluster ~regions:rids ~buckets:(max 64 (keys / 4)) ~ksize:16 ~vsize:32 ()
  in
  { table; keys }

let load cluster t =
  let i = ref 0 in
  while !i < t.keys do
    let lo = !i and hi = min t.keys (!i + 64) in
    Cluster.run_on cluster ~machine:0 (fun st ->
        match
          Api.run_retry st ~thread:0 (fun tx ->
              for k = lo to hi - 1 do
                Hashtable.insert tx t.table (key16 k) (Bytes.make 32 'v')
              done)
        with
        | Ok () -> ()
        | Error e -> Fmt.failwith "Kvlookup.load: %a" Txn.pp_abort e);
    i := hi
  done

let op t (ctx : Driver.worker_ctx) =
  let k = Rng.int ctx.Driver.rng t.keys in
  Hashtable.lookup_lockfree ctx.Driver.st t.table (key16 k) <> None
