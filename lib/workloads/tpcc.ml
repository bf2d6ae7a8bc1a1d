open Farm_sim
open Farm_core
open Farm_kv

(* TPC-C (§6.2): the full five-transaction mix over a 16-index schema —
   twelve unordered indexes as FaRM hash tables plus four ordered indexes
   as FaRM B-trees (orders, new-orders, order-lines, customers-by-name),
   with hash tables and clients co-partitioned by warehouse, which keeps
   ~90% of transactions local (and, as Figure 10 shows, reduces data
   recovery parallelism after a failure).

   The scale is configurable and defaults well below the paper's 21,600
   warehouses; ratios (10 districts/warehouse, 1% remote items, 15% remote
   payments, 45% new-order share) keep their spec values.

   Integer key encodings:
     warehouse   w
     district    w*10 + d
     customer    dkey*100000 + c
     stock       w*1000000 + i
     order       dkey*10000000 + o                (also the order B-tree key)
     order line  okey*16 + ol                     (also the OL B-tree key)
     cust-name   dkey*(2^24) + name_bucket*(2^14) + c                     *)

type scale = {
  warehouses : int;
  districts : int;
  customers : int;  (* per district *)
  items : int;
}

let default_scale = { warehouses = 4; districts = 10; customers = 40; items = 200 }

type t = {
  scale : scale;
  groups : int;  (* co-partition groups (one region set each) *)
  (* hash indexes *)
  warehouse : Hashtable.t;
  district : Hashtable.t;
  customer : Hashtable.t;
  item : Hashtable.t;
  stock : Hashtable.t;
  order : Hashtable.t;
  new_order : Hashtable.t;
  order_line : Hashtable.t;
  history : Hashtable.t;
  last_order : Hashtable.t;  (* customer -> latest o_id *)
  (* ordered indexes, per co-partition group *)
  order_tree : Btree.t array;
  no_tree : Btree.t array;
  ol_tree : Btree.t array;
  cust_name_tree : Btree.t array;
  (* measurement: successful "new order" transactions *)
  new_orders : Stats.Counter.t;
  no_latency : Stats.Hist.t;
  no_series : Stats.Series.t;
  mutable history_seq : int;
}

let dkey t ~w ~d = (w * t.scale.districts) + d
let ckey t ~w ~d ~c = (dkey t ~w ~d * 100_000) + c
let skey ~w ~i = (w * 1_000_000) + i
let okey t ~w ~d ~o = (dkey t ~w ~d * 10_000_000) + o
let olkey ~okey ~ol = (okey * 16) + ol
let namekey t ~w ~d ~bucket ~c = (dkey t ~w ~d * (1 lsl 24)) + (bucket lsl 14) + c

let key8 v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  b

let group_of t w = w mod t.groups

(* {1 Record codecs} *)

let get_i b off = Int64.to_int (Bytes.get_int64_le b off)
let set_i b off v = Bytes.set_int64_le b off (Int64.of_int v)

let mk_record n fields =
  let b = Bytes.make n '\000' in
  List.iteri (fun i v -> set_i b (i * 8) v) fields;
  b

(* {1 Creation and population} *)

let create cluster ~scale () =
  let n_machines = Cluster.n_machines cluster in
  let groups = min scale.warehouses n_machines in
  (* one co-located pair of regions per group *)
  let group_regions =
    Array.init groups (fun _ ->
        let first = (Cluster.alloc_region_exn cluster).Wire.rid in
        [| first; (Cluster.alloc_region_exn ~locality:first cluster).Wire.rid |])
  in
  let flat = Array.init groups (fun g -> group_regions.(g).(0)) in
  let part_w extract key = extract (get_i key 0) mod groups in
  let mk ~rows ~vsize ~extract =
    Hashtable.create cluster ~regions:flat
      ~buckets:(max (4 * groups) (rows / 3))
      ~ksize:8 ~vsize ~partitions:groups ~partition_of:(part_w extract) ()
  in
  let w_of_w w = w in
  let w_of_d dk = dk / scale.districts in
  let w_of_c ck = w_of_d (ck / 100_000) in
  let w_of_s sk = sk / 1_000_000 in
  let w_of_o ok = w_of_d (ok / 10_000_000) in
  let w_of_ol olk = w_of_o (olk / 16) in
  let n_w = scale.warehouses in
  let n_d = n_w * scale.districts in
  let n_c = n_d * scale.customers in
  let warehouse = mk ~rows:n_w ~vsize:16 ~extract:w_of_w in
  let district = mk ~rows:n_d ~vsize:24 ~extract:w_of_d in
  let customer = mk ~rows:n_c ~vsize:48 ~extract:w_of_c in
  let item = mk ~rows:scale.items ~vsize:16 ~extract:(fun _ -> 0) in
  let stock = mk ~rows:(n_w * scale.items) ~vsize:24 ~extract:w_of_s in
  let order = mk ~rows:(n_c * 3) ~vsize:24 ~extract:w_of_o in
  let new_order = mk ~rows:n_c ~vsize:8 ~extract:w_of_o in
  let order_line = mk ~rows:(n_c * 12) ~vsize:32 ~extract:w_of_ol in
  let history = mk ~rows:(n_c * 2) ~vsize:24 ~extract:(fun _ -> 0) in
  let last_order = mk ~rows:n_c ~vsize:8 ~extract:w_of_c in
  let mk_tree g =
    Cluster.run_on cluster ~machine:0 (fun st ->
        Btree.create st ~thread:0 ~regions:group_regions.(g) ())
  in
  let t =
    {
      scale;
      groups;
      warehouse;
      district;
      customer;
      item;
      stock;
      order;
      new_order;
      order_line;
      history;
      last_order;
      order_tree = Array.init groups mk_tree;
      no_tree = Array.init groups mk_tree;
      ol_tree = Array.init groups mk_tree;
      cust_name_tree = Array.init groups mk_tree;
      new_orders = Stats.Counter.create ();
      no_latency = Stats.Hist.create ();
      no_series = Stats.Series.create ~bin:(Time.ms 1);
      history_seq = 0;
    }
  in
  t

let name_bucket c = c mod 97

let load cluster t =
  let s = t.scale in
  (* items (global, read-only) *)
  let batch_run f =
    Cluster.run_on cluster ~machine:0 (fun st ->
        match Api.run_retry st ~thread:0 f with
        | Ok () -> ()
        | Error e -> Fmt.failwith "Tpcc.load: %a" Txn.pp_abort e)
  in
  let i = ref 0 in
  while !i < s.items do
    let lo = !i and hi = min s.items (!i + 50) in
    batch_run (fun tx ->
        for it = lo to hi - 1 do
          Hashtable.insert tx t.item (key8 it) (mk_record 16 [ 100 + (it mod 900); it ])
        done);
    i := hi
  done;
  for w = 0 to s.warehouses - 1 do
    batch_run (fun tx ->
        Hashtable.insert tx t.warehouse (key8 w) (mk_record 16 [ 0; 10 + (w mod 10) ]));
    (* stock *)
    let i = ref 0 in
    while !i < s.items do
      let lo = !i and hi = min s.items (!i + 40) in
      batch_run (fun tx ->
          for it = lo to hi - 1 do
            Hashtable.insert tx t.stock (key8 (skey ~w ~i:it)) (mk_record 24 [ 50 + (it mod 50); 0; 0 ])
          done);
      i := hi
    done;
    for d = 0 to s.districts - 1 do
      batch_run (fun tx ->
          Hashtable.insert tx t.district (key8 (dkey t ~w ~d)) (mk_record 24 [ 0; 1; 5 + (d mod 10) ]));
      let c = ref 0 in
      while !c < s.customers do
        let lo = !c and hi = min s.customers (!c + 25) in
        batch_run (fun tx ->
            for c = lo to hi - 1 do
              let ck = ckey t ~w ~d ~c in
              Hashtable.insert tx t.customer (key8 ck) (mk_record 48 [ -10; 10; 1; 0 ]);
              Btree.insert tx
                t.cust_name_tree.(group_of t w)
                (namekey t ~w ~d ~bucket:(name_bucket c) ~c)
                ck
            done);
        c := hi
      done
    done
  done

(* {1 Helpers inside transactions} *)

let read_row tx table key =
  match Hashtable.lookup tx table (key8 key) with
  | Some row -> row
  | None -> raise (Txn.Abort Txn.Not_allocated)

(* [Hashtable.lookup] returns a private copy of the row, so it is edited
   as is. *)
let update_row tx table key f =
  let row = read_row tx table key in
  f row;
  Hashtable.insert tx table (key8 key) row

(* {1 The five transactions} *)

let new_order t (ctx : Driver.worker_ctx) ~w =
  let s = t.scale in
  let st = ctx.Driver.st and rng = ctx.Driver.rng in
  let d = Rng.int rng s.districts in
  let c = Rng.int rng s.customers in
  let n_items = 5 + Rng.int rng 11 in
  let lines =
    List.init n_items (fun _ ->
        let item = Rng.int rng s.items in
        (* 1% of items come from a remote warehouse *)
        let supply_w =
          if s.warehouses > 1 && Rng.int rng 100 = 0 then Rng.int rng s.warehouses else w
        in
        let qty = 1 + Rng.int rng 10 in
        (item, supply_w, qty))
  in
  let rollback = Rng.int rng 100 = 0 in
  let t0 = Proc.now () in
  match
    Api.run_retry ~attempts:24 st ~thread:ctx.Driver.thread (fun tx ->
        let wrow = read_row tx t.warehouse w in
        let _w_tax = get_i wrow 8 in
        let dk = dkey t ~w ~d in
        let o = ref 0 in
        update_row tx t.district dk (fun row ->
            o := get_i row 8;
            set_i row 8 (!o + 1));
        let ck = ckey t ~w ~d ~c in
        let _crow = read_row tx t.customer ck in
        let ok = okey t ~w ~d ~o:!o in
        Hashtable.insert tx t.order (key8 ok) (mk_record 24 [ ck; n_items; 0 ]);
        Btree.insert tx t.order_tree.(group_of t w) ok ck;
        Hashtable.insert tx t.new_order (key8 ok) (mk_record 8 [ 1 ]);
        Btree.insert tx t.no_tree.(group_of t w) ok 1;
        Hashtable.insert tx t.last_order (key8 ck) (mk_record 8 [ !o ]);
        List.iteri
          (fun ol (item, supply_w, qty) ->
            let irow = read_row tx t.item item in
            let price = get_i irow 0 in
            update_row tx t.stock (skey ~w:supply_w ~i:item) (fun row ->
                let q = get_i row 0 in
                set_i row 0 (if q - qty >= 10 then q - qty else q - qty + 91);
                set_i row 8 (get_i row 8 + qty);
                set_i row 16 (get_i row 16 + 1));
            let olk = olkey ~okey:ok ~ol in
            Hashtable.insert tx t.order_line (key8 olk)
              (mk_record 32 [ item; qty; price * qty; supply_w ]);
            Btree.insert tx t.ol_tree.(group_of t w) olk (price * qty))
          lines;
        (* the spec's 1% new-orders hit an invalid item (discovered after
           the line items were processed) and roll back *)
        if rollback then Api.abort ())
  with
  | Ok () ->
      let t1 = Proc.now () in
      Stats.Counter.incr t.new_orders;
      Stats.Hist.record t.no_latency (Time.to_ns (Time.sub t1 t0));
      Stats.Series.add t.no_series ~at:t1 1;
      true
  | Error _ -> false

let payment t (ctx : Driver.worker_ctx) ~w =
  let s = t.scale in
  let st = ctx.Driver.st and rng = ctx.Driver.rng in
  let d = Rng.int rng s.districts in
  (* 15% of payments are for a customer of a remote warehouse *)
  let cw, cd =
    if s.warehouses > 1 && Rng.int rng 100 < 15 then
      (Rng.int rng s.warehouses, Rng.int rng s.districts)
    else (w, d)
  in
  let amount = 1 + Rng.int rng 5000 in
  let by_name = Rng.int rng 100 < 60 in
  let c = Rng.int rng s.customers in
  t.history_seq <- t.history_seq + 1;
  let hkey = (st.State.id * (1 lsl 40)) + t.history_seq in
  match
    Api.run_retry ~attempts:24 st ~thread:ctx.Driver.thread (fun tx ->
        update_row tx t.warehouse w (fun row -> set_i row 0 (get_i row 0 + amount));
        update_row tx t.district (dkey t ~w ~d) (fun row ->
            set_i row 0 (get_i row 0 + amount));
        let ck =
          if by_name then begin
            (* select the middle match by last name via the ordered index *)
            let bucket = name_bucket c in
            let lo = namekey t ~w:cw ~d:cd ~bucket ~c:0 in
            let hi = namekey t ~w:cw ~d:cd ~bucket ~c:((1 lsl 14) - 1) in
            match Btree.range tx t.cust_name_tree.(group_of t cw) ~lo ~hi with
            | [] -> ckey t ~w:cw ~d:cd ~c
            | matches -> snd (List.nth matches (List.length matches / 2))
          end
          else ckey t ~w:cw ~d:cd ~c
        in
        update_row tx t.customer ck (fun row ->
            set_i row 0 (get_i row 0 - amount);
            set_i row 8 (get_i row 8 + amount);
            set_i row 16 (get_i row 16 + 1));
        Hashtable.insert tx t.history (key8 hkey) (mk_record 24 [ ck; amount; 0 ]))
  with
  | Ok () -> true
  | Error _ -> false

let order_status t (ctx : Driver.worker_ctx) ~w =
  let s = t.scale in
  let st = ctx.Driver.st and rng = ctx.Driver.rng in
  let d = Rng.int rng s.districts in
  let c = Rng.int rng s.customers in
  match
    Api.run st ~thread:ctx.Driver.thread (fun tx ->
        let ck = ckey t ~w ~d ~c in
        let _crow = read_row tx t.customer ck in
        match Hashtable.lookup tx t.last_order (key8 ck) with
        | None -> 0
        | Some lo ->
            let o = get_i lo 0 in
            let ok = okey t ~w ~d ~o in
            let orow = read_row tx t.order ok in
            let ol_cnt = get_i orow 8 in
            let lines =
              Btree.range tx t.ol_tree.(group_of t w) ~lo:(olkey ~okey:ok ~ol:0)
                ~hi:(olkey ~okey:ok ~ol:15)
            in
            ignore ol_cnt;
            List.length lines)
  with
  | Ok _ -> true
  | Error _ -> false

let delivery t (ctx : Driver.worker_ctx) ~w =
  let s = t.scale in
  let st = ctx.Driver.st in
  let carrier = 1 + Rng.int ctx.Driver.rng 10 in
  match
    Api.run_retry ~attempts:8 st ~thread:ctx.Driver.thread (fun tx ->
        for d = 0 to s.districts - 1 do
          let base = okey t ~w ~d ~o:0 in
          let limit = okey t ~w ~d ~o:9_999_999 in
          match Btree.range tx t.no_tree.(group_of t w) ~lo:base ~hi:limit with
          | [] -> ()
          | (ok, _) :: _ ->
              ignore (Hashtable.delete tx t.new_order (key8 ok));
              ignore (Btree.delete tx t.no_tree.(group_of t w) ok);
              let orow = read_row tx t.order ok in
              let ck = get_i orow 0 in
              update_row tx t.order ok (fun row -> set_i row 16 carrier);
              let lines =
                Btree.range tx t.ol_tree.(group_of t w) ~lo:(olkey ~okey:ok ~ol:0)
                  ~hi:(olkey ~okey:ok ~ol:15)
              in
              let total = List.fold_left (fun acc (_, amt) -> acc + amt) 0 lines in
              update_row tx t.customer ck (fun row ->
                  set_i row 0 (get_i row 0 + total);
                  set_i row 24 (get_i row 24 + 1))
        done)
  with
  | Ok () -> true
  | Error _ -> false

let stock_level t (ctx : Driver.worker_ctx) ~w =
  let s = t.scale in
  let st = ctx.Driver.st and rng = ctx.Driver.rng in
  let d = Rng.int rng s.districts in
  let threshold = 10 + Rng.int rng 10 in
  match
    (* a ~100-object read-only snapshot: at this reduced scale it races the
       writers often, so retry validation failures a few times *)
    Api.run_retry ~attempts:8 st ~thread:ctx.Driver.thread (fun tx ->
        let drow = read_row tx t.district (dkey t ~w ~d) in
        let next_o = get_i drow 8 in
        let from_o = max 1 (next_o - 20) in
        let low = ref 0 in
        let seen = Hashtbl.create 64 in
        for o = from_o to next_o - 1 do
          let ok = okey t ~w ~d ~o in
          let lines =
            Btree.range tx t.ol_tree.(group_of t w) ~lo:(olkey ~okey:ok ~ol:0)
              ~hi:(olkey ~okey:ok ~ol:15)
          in
          List.iter
            (fun (olk, _) ->
              match Hashtable.lookup tx t.order_line (key8 olk) with
              | Some row ->
                  let item = get_i row 0 in
                  if not (Hashtbl.mem seen item) then begin
                    Hashtbl.replace seen item ();
                    match Hashtable.lookup tx t.stock (key8 (skey ~w ~i:item)) with
                    | Some srow -> if get_i srow 0 < threshold then incr low
                    | None -> ()
                  end
              | None -> ())
            lines
        done;
        !low)
  with
  | Ok _ -> true
  | Error _ -> false

(* {1 Client co-partitioning}: each machine serves the warehouses whose
   home region lives on it; fall back to round-robin before placement is
   known. *)
let home_warehouse t (ctx : Driver.worker_ctx) =
  let st = ctx.Driver.st in
  let candidates = ref [] in
  for w = 0 to t.scale.warehouses - 1 do
    let key = key8 w in
    let bucket = t.warehouse.Hashtable.buckets.(Hashtable.bucket_of t.warehouse key) in
    match State.region_info st bucket.Addr.region with
    | Some info when info.Wire.primary = st.State.id -> candidates := w :: !candidates
    | _ -> ()
  done;
  match !candidates with
  | [] -> (ctx.Driver.worker + st.State.id) mod t.scale.warehouses
  | l -> List.nth l (Rng.int ctx.Driver.rng (List.length l))

(* One operation of the standard mix. *)
let op t (ctx : Driver.worker_ctx) =
  let w = home_warehouse t ctx in
  let roll = Rng.int ctx.Driver.rng 100 in
  if roll < 45 then new_order t ctx ~w
  else if roll < 88 then payment t ctx ~w
  else if roll < 92 then order_status t ctx ~w
  else if roll < 96 then delivery t ctx ~w
  else stock_level t ctx ~w

(* {1 Consistency checks (used by the test-suite)} *)

(* TPC-C consistency condition 1: W_YTD = sum(D_YTD). *)
let check_ytd cluster t =
  Cluster.run_on cluster ~machine:0 (fun st ->
      match
        Api.run_retry st ~thread:0 (fun tx ->
            let ok = ref true in
            for w = 0 to t.scale.warehouses - 1 do
              let wrow = read_row tx t.warehouse w in
              let sum = ref 0 in
              for d = 0 to t.scale.districts - 1 do
                let drow = read_row tx t.district (dkey t ~w ~d) in
                sum := !sum + get_i drow 0
              done;
              if get_i wrow 0 <> !sum then ok := false
            done;
            !ok)
      with
      | Ok ok -> ok
      | Error _ -> false)

(* Orders are dense per district: next_o_id - 1 orders exist. *)
let check_orders cluster t =
  Cluster.run_on cluster ~machine:0 (fun st ->
      match
        Api.run_retry st ~thread:0 (fun tx ->
            let ok = ref true in
            for w = 0 to t.scale.warehouses - 1 do
              for d = 0 to t.scale.districts - 1 do
                let drow = read_row tx t.district (dkey t ~w ~d) in
                let next_o = get_i drow 8 in
                for o = 1 to next_o - 1 do
                  if Hashtable.lookup tx t.order (key8 (okey t ~w ~d ~o)) = None then
                    ok := false
                done
              done
            done;
            !ok)
      with
      | Ok ok -> ok
      | Error _ -> false)
