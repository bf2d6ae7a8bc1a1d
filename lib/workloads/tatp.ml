open Farm_sim
open Farm_core
open Farm_kv

(* TATP — Telecommunication Application Transaction Processing (§6.2/6.3).

   Four tables, each a FaRM hash table; the standard transaction mix:
     35% GET_SUBSCRIBER_DATA    single-row, lock-free read
     35% GET_ACCESS_DATA        single-row, lock-free read
     10% GET_NEW_DESTINATION    2-4 row read, validated at commit
      2% UPDATE_SUBSCRIBER_DATA full commit protocol
     14% UPDATE_LOCATION        single-field update, function-shipped to
                                the subscriber row's primary (§6.2)
      2% INSERT_CALL_FORWARDING
      2% DELETE_CALL_FORWARDING
   i.e. 70% single-row lookups, 10% multi-row reads, 20% updates, as the
   paper describes. Subscriber ids use TATP's non-uniform generator, the
   source of the throughput dips the paper mentions. *)

type t = {
  subscribers : int;
  sub : Hashtable.t;  (* s_id -> 40 B record; vlr_location at offset 0 *)
  access : Hashtable.t;  (* s_id*4 + (ai-1) -> 16 B *)
  special : Hashtable.t;  (* s_id*4 + (sf-1) -> 16 B; is_active at 0, data_a at 1 *)
  callfwd : Hashtable.t;  (* (s_id*4 + (sf-1))*3 + slot -> 16 B *)
}

let key8 v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  b

(* deterministic per-subscriber row counts (1-4, as the TATP population
   rules require) *)
let n_access s = 1 + (s mod 4)
let n_special s = 1 + ((s / 4) mod 4)

let update_location_tag = 7001

(* One local UPDATE_LOCATION transaction: overwrite vlr_location. *)
let do_update_location st t ~thread ~s ~vlr =
  Api.run_retry ~attempts:16 st ~thread (fun tx ->
      match Hashtable.lookup tx t.sub (key8 s) with
      | Some row ->
          Bytes.set_int64_le row 0 (Int64.of_int vlr);
          Hashtable.insert tx t.sub (key8 s) row
      | None -> ())

(* Register the function-shipping handler on one machine. *)
let install st t =
  st.State.app_handler <-
    Some
      (fun ~tag ~args ->
        if tag = update_location_tag && Array.length args = 2 then
          match do_update_location st t ~thread:0 ~s:args.(0) ~vlr:args.(1) with
          | Ok () -> true
          | Error _ -> false
        else false)

(* The TATP population rules, one table at a time: every subscriber has a
   row, 1-4 access rows and 1-4 special facilities, and half the special
   facilities start with one call-forwarding row. *)
let per_subscriber n count row =
  List.concat
    (List.init n (fun i ->
         let s = i + 1 in
         List.filter_map (row s) (List.init (count s) Fun.id)))

let sub_rows n =
  per_subscriber n (fun _ -> 1) (fun s _ ->
      let row = Bytes.make 40 '\000' in
      Bytes.set_int64_le row 0 (Int64.of_int s);
      Some (key8 s, row))

let access_rows n =
  per_subscriber n n_access (fun s ai -> Some (key8 ((s * 4) + ai), Bytes.make 16 '\001'))

let special_rows n =
  per_subscriber n n_special (fun s sf ->
      let row = Bytes.make 16 '\000' in
      Bytes.set row 0 (if (s + sf) mod 6 < 5 then '\001' else '\000');
      Some (key8 ((s * 4) + sf), row))

let callfwd_rows n =
  per_subscriber n n_special (fun s sf ->
      if (s + sf) mod 2 = 0 then Some (key8 ((((s * 4) + sf) * 3) + 0), Bytes.make 16 '\002')
      else None)

(* Allocate the four tables' regions, in table order and with one
   allocation process, build the four tables already populated, and
   register the handlers cluster-wide. Each table is created holding
   its rows ([Hashtable.create ~rows]), built at its regions' primaries,
   all primaries at once: every row is written by a committed transaction,
   so backups match primaries, but populating costs only the transactions
   that allocate the buckets. Rows are built one table at a time, so only
   one table's are live. *)
let create cluster ~subscribers ~regions_per_table =
  let rids =
    Array.map (fun i -> i.Wire.rid) (Cluster.alloc_regions cluster (4 * regions_per_table))
  in
  let table k = Array.sub rids (k * regions_per_table) regions_per_table in
  let r_sub = table 0 and r_access = table 1 and r_special = table 2 and r_callfwd = table 3 in
  let n = subscribers in
  let buckets_for rows = max 64 (rows / 4) in
  let build regions ~vsize ~expected rows =
    Hashtable.create cluster ~regions ~buckets:(buckets_for expected) ~ksize:8 ~vsize
      ~rows:(rows n) ()
  in
  let sub = build r_sub ~vsize:40 ~expected:n sub_rows in
  let access = build r_access ~vsize:16 ~expected:(n * 5 / 2) access_rows in
  let special = build r_special ~vsize:16 ~expected:(n * 5 / 2) special_rows in
  let callfwd = build r_callfwd ~vsize:16 ~expected:(n * 3) callfwd_rows in
  let t = { subscribers; sub; access; special; callfwd } in
  Array.iter (fun st -> install st t) cluster.Cluster.machines;
  t

(* The tables hold their rows already; loading only waits until the
   build's last commits are truncated, so a run starts with every backup
   equal to its primary (DESIGN.md "Loading tables"). *)
let load cluster (_ : t) = Cluster.settle cluster

(* TATP's non-uniform subscriber id generator. *)
let random_sid t rng =
  let n = t.subscribers in
  let a =
    let rec pow2 p = if p * 2 > n then p else pow2 (p * 2) in
    pow2 1 - 1
  in
  (((Rng.int rng (a + 1)) lor (1 + Rng.int rng n)) mod n) + 1

(* {1 The seven transactions} *)

let get_subscriber_data st t rng =
  let s = random_sid t rng in
  ignore (Hashtable.lookup_lockfree st t.sub (key8 s));
  true

let get_access_data st t rng =
  let s = random_sid t rng in
  let ai = Rng.int rng 4 in
  ignore (Hashtable.lookup_lockfree st t.access (key8 ((s * 4) + ai)));
  true

let get_new_destination st ~thread t rng =
  let s = random_sid t rng in
  let sf = Rng.int rng 4 in
  match
    Api.run st ~thread (fun tx ->
        match Hashtable.lookup tx t.special (key8 ((s * 4) + sf)) with
        | Some row when Bytes.get row 0 = '\001' ->
            let slot = Rng.int rng 3 in
            Hashtable.lookup tx t.callfwd (key8 ((((s * 4) + sf) * 3) + slot)) <> None
        | Some _ | None -> false)
  with
  | Ok _found -> true
  | Error _ -> false

let update_subscriber_data st ~thread t rng =
  let s = random_sid t rng in
  let sf = Rng.int rng 4 in
  match
    Api.run_retry ~attempts:16 st ~thread (fun tx ->
        (match Hashtable.lookup tx t.sub (key8 s) with
        | Some row ->
            Bytes.set row 8 (Char.chr (Rng.int rng 2));
            Hashtable.insert tx t.sub (key8 s) row
        | None -> ());
        match Hashtable.lookup tx t.special (key8 ((s * 4) + sf)) with
        | Some row ->
            Bytes.set row 1 (Char.chr (Rng.int rng 256));
            Hashtable.insert tx t.special (key8 ((s * 4) + sf)) row
        | None -> ())
  with
  | Ok () -> true
  | Error _ -> false

(* Single-field update: function-shipped to the subscriber row's primary
   when remote (§6.2). *)
let update_location st ~thread t rng =
  let s = random_sid t rng in
  let vlr = Rng.int rng 1_000_000 in
  let bucket = t.sub.Hashtable.buckets.(Hashtable.bucket_of t.sub (key8 s)) in
  let primary =
    match State.region_info st bucket.Addr.region with
    | Some info -> info.Wire.primary
    | None -> st.State.id
  in
  if primary = st.State.id then
    match do_update_location st t ~thread ~s ~vlr with Ok () -> true | Error _ -> false
  else begin
    match
      Comms.call st ~dst:primary ~timeout:(Time.ms 50)
        (Wire.App_call { tag = update_location_tag; args = [| s; vlr |] })
    with
    | Ok (Wire.App_reply { ok }) -> ok
    | Ok _ | Error _ -> false
  end

let insert_call_forwarding st ~thread t rng =
  let s = random_sid t rng in
  let sf = Rng.int rng 4 in
  let slot = Rng.int rng 3 in
  match
    Api.run_retry ~attempts:16 st ~thread (fun tx ->
        match Hashtable.lookup tx t.special (key8 ((s * 4) + sf)) with
        | Some _ ->
            let row = Bytes.make 16 '\003' in
            Hashtable.insert tx t.callfwd (key8 ((((s * 4) + sf) * 3) + slot)) row
        | None -> ())
  with
  | Ok () -> true
  | Error _ -> false

let delete_call_forwarding st ~thread t rng =
  let s = random_sid t rng in
  let sf = Rng.int rng 4 in
  let slot = Rng.int rng 3 in
  match
    Api.run_retry ~attempts:16 st ~thread (fun tx ->
        ignore (Hashtable.delete tx t.callfwd (key8 ((((s * 4) + sf) * 3) + slot))))
  with
  | Ok () -> true
  | Error _ -> false

(* One operation of the standard mix; returns success. *)
let op t (ctx : Driver.worker_ctx) =
  let st = ctx.Driver.st and rng = ctx.Driver.rng and thread = ctx.Driver.thread in
  let roll = Rng.int rng 100 in
  if roll < 35 then get_subscriber_data st t rng
  else if roll < 70 then get_access_data st t rng
  else if roll < 80 then get_new_destination st ~thread t rng
  else if roll < 82 then update_subscriber_data st ~thread t rng
  else if roll < 96 then update_location st ~thread t rng
  else if roll < 98 then insert_call_forwarding st ~thread t rng
  else delete_call_forwarding st ~thread t rng
