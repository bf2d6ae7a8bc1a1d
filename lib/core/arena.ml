(* Per-commit scratch arenas (allocation discipline, DESIGN.md).

   The commit protocol needs a handful of small, short-lived groupings per
   transaction: write items by destination, region ids written, per-
   participant reservation accounting, validation groups. Building these
   out of fresh hashtables and cons lists cost ~tens of KB of heap per
   commit; an arena holds them as flat arrays that are reset — not
   reallocated — between transactions.

   Ownership rules (the part that keeps this safe):

   - The arena owns only coordinator-side SCRATCH. Anything that crosses
     the wire and can be retained by a receiver — [Wire.write_item]s,
     [Wire.record] payloads, the [regions_written] list shared by LOCK and
     COMMIT-BACKUP — is freshly allocated per commit and never reused:
     ring logs keep records resident until truncation and recovery reads
     them back long after the coordinator has moved on.

   - Arenas are reference-counted, not scoped: the commit path spawns
     background processes (COMMIT-PRIMARY bookkeeping, lazy TRUNCATE) that
     touch the accounting tables after [Commit.commit] has returned, so
     each such process retains the arena before it is spawned and releases
     it when it finishes. The arena returns to the machine's pool only
     when the last reference drops.

   - With [Params.arena_reuse] off, released arenas are dropped instead of
     pooled, so every commit starts from freshly-zeroed state. Replaying
     the same seed in both modes and comparing traces is the state-leak
     detector: any byte of difference means scratch escaped a commit. *)

(* {1 Growable flat vectors}

   Each vector carries a dummy of its element type. [clear] only rewinds
   the count, so slots beyond [n] keep whatever they held: fine for ints,
   but a vector of pointers would keep a finished transaction's write
   items, values and records alive in the pool until the slots are
   overwritten. Pointer vectors are therefore rewound only with [scrub],
   which overwrites the used prefix with the dummy, and every vector grows
   by filling with the dummy, so each slot of a pointer vector at or past
   [n] holds the dummy. *)

module Vec = struct
  type 'a t = { mutable a : 'a array; mutable n : int; dummy : 'a }

  let length v = v.n
  let clear v = v.n <- 0

  let scrub v =
    Array.fill v.a 0 v.n v.dummy;
    v.n <- 0

  let get v i = v.a.(i)

  let push v x =
    let cap = Array.length v.a in
    if v.n = cap then begin
      let na = Array.make (if cap = 0 then 8 else 2 * cap) v.dummy in
      Array.blit v.a 0 na 0 v.n;
      v.a <- na
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let iter f v =
    for i = 0 to v.n - 1 do
      f v.a.(i)
    done

  let fold f acc v =
    let acc = ref acc in
    for i = 0 to v.n - 1 do
      acc := f !acc v.a.(i)
    done;
    !acc

  (* Fresh list of the live elements — for the wire payloads the arena must
     NOT own. *)
  let to_list v = List.init v.n (fun i -> v.a.(i))
end

(* Outside [Vec] so that [Vec]'s signature in arena.mli is its whole
   structure. Hiding a value from a submodule's signature makes the
   compiler coerce the submodule, and that raised the commit path's heap
   allocation by 13 bytes per transaction (engine_scaling's commit
   micro). *)
let vec dummy = { Vec.a = [||]; n = 0; dummy }

(* In-place sort + dedup of an int vector with an explicit int comparison
   (insertion sort: the inputs are region/participant sets, a handful of
   elements). No allocation. *)
let sort_uniq_ints (v : int Vec.t) =
  let a = v.a in
  for i = 1 to v.n - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done;
  if v.n > 1 then begin
    let w = ref 1 in
    for i = 1 to v.n - 1 do
      if a.(i) <> a.(!w - 1) then begin
        a.(!w) <- a.(i);
        incr w
      end
    done;
    v.n <- !w
  end

(* {1 Destination groups}

   Items grouped by destination machine, in first-touch order. Group
   records and their item vectors are recycled: [live] marks how many are
   in use this transaction. Linear search — a transaction talks to a
   handful of machines. The dummy group's item vector holds the item
   dummy that new groups start from. *)

type 'a group = { mutable g_dst : int; g_items : 'a Vec.t }
type 'a groups = { gs : 'a group Vec.t; mutable live : int }

let groups_create dummy = { gs = vec { g_dst = -1; g_items = vec dummy }; live = 0 }
let groups_clear g = g.live <- 0

(* Groups of pointers: drop the live groups' references too. *)
let groups_scrub g =
  for i = 0 to g.live - 1 do
    Vec.scrub (Vec.get g.gs i).g_items
  done;
  g.live <- 0

let group g i = Vec.get g.gs i

let group_add g ~dst x =
  let rec find i =
    if i = g.live then None
    else
      let gr = Vec.get g.gs i in
      if gr.g_dst = dst then Some gr else find (i + 1)
  in
  let gr =
    match find 0 with
    | Some gr -> gr
    | None ->
        let gr =
          if g.live < Vec.length g.gs then begin
            let gr = Vec.get g.gs g.live in
            gr.g_dst <- dst;
            Vec.clear gr.g_items;
            gr
          end
          else begin
            let gr = { g_dst = dst; g_items = vec g.gs.dummy.g_items.dummy } in
            Vec.push g.gs gr;
            gr
          end
        in
        g.live <- g.live + 1;
        gr
  in
  Vec.push gr.g_items x

(* {1 Participant accounting}

   Per destination log: bytes reserved, bytes consumed, and whether this
   transaction's truncation entry has been queued (its allowance is then
   spoken for). Replaces three hashtables. *)

type acct = {
  mutable a_dst : int;
  mutable a_reserved : int;
  mutable a_consumed : int;
  mutable a_trunc_queued : bool;
}

type accts = { accs : acct Vec.t; mutable alive : int }

let accts_create () =
  { accs = vec { a_dst = -1; a_reserved = 0; a_consumed = 0; a_trunc_queued = false }; alive = 0 }
let accts_clear t = t.alive <- 0

let acct_for t dst =
  let rec find i =
    if i = t.alive then None
    else
      let a = Vec.get t.accs i in
      if a.a_dst = dst then Some a else find (i + 1)
  in
  match find 0 with
  | Some a -> a
  | None ->
      let a =
        if t.alive < Vec.length t.accs then begin
          let a = Vec.get t.accs t.alive in
          a.a_dst <- dst;
          a.a_reserved <- 0;
          a.a_consumed <- 0;
          a.a_trunc_queued <- false;
          a
        end
        else begin
          let a = { a_dst = dst; a_reserved = 0; a_consumed = 0; a_trunc_queued = false } in
          Vec.push t.accs a;
          a
        end
      in
      t.alive <- t.alive + 1;
      a

(* Deterministic participant order for truncation queueing and leftover
   release: sorted by destination id, like the old sorted participant
   list. In-place insertion sort over the live prefix. *)
let accts_sort t =
  let a = t.accs.Vec.a in
  for i = 1 to t.alive - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j).a_dst > x.a_dst do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

let accts_iter f t =
  for i = 0 to t.alive - 1 do
    f (Vec.get t.accs i)
  done

(* {1 The arena}

   What a released arena drops: the dummies its pointer vectors are
   scrubbed with. None is ever read. *)

let dummy_item =
  {
    Wire.addr = Addr.make ~region:(-1) ~offset:0;
    version = 0;
    value = Bytes.empty;
    alloc_op = Wire.Alloc_none;
    ts = 0;
  }

let dummy_info =
  {
    Wire.rid = -1;
    primary = -1;
    backups = [];
    last_primary_change = 0;
    last_replica_change = 0;
    critical = false;
  }

type t = {
  mutable refs : int;
  (* read set not written (validation input): address + observed version *)
  ro_key : int Vec.t;  (* packed addresses *)
  ro_ver : int Vec.t;
  (* write items in address order; the records themselves are fresh (wire-
     owned), only this staging array is reused *)
  items : Wire.write_item Vec.t;
  (* region ids written / read, sorted unique in place *)
  wregions : int Vec.t;
  rregions : int Vec.t;
  (* mapping info per written region, parallel to [wregions] *)
  info_rid : int Vec.t;
  infos : Wire.region_info Vec.t;
  (* write items grouped by primary / backup destination *)
  primaries : Wire.write_item groups;
  backups : Wire.write_item groups;
  (* per-participant reservation accounting *)
  acct : accts;
  (* VALIDATE: read-set indices grouped by primary; O(1) size per group
     decides RDMA-vs-RPC against the tr threshold *)
  vgroups : int groups;
  (* VALIDATE: the batched remote header reads (destination, ro index) *)
  rv_dst : int Vec.t;
  rv_idx : int Vec.t;
  (* staging for one doorbell-batched log-append group *)
  ap_dst : int Vec.t;
  ap_pay : Wire.record Vec.t;
}

let create () =
  {
    refs = 0;
    ro_key = vec 0;
    ro_ver = vec 0;
    items = vec dummy_item;
    wregions = vec 0;
    rregions = vec 0;
    info_rid = vec 0;
    infos = vec dummy_info;
    primaries = groups_create dummy_item;
    backups = groups_create dummy_item;
    acct = accts_create ();
    vgroups = groups_create 0;
    rv_dst = vec 0;
    rv_idx = vec 0;
    ap_dst = vec 0;
    ap_pay = vec Wire.Truncate_marker;
  }

(* Run as the arena goes back to the pool, so a pooled arena references
   nothing of the transaction that last used it: once the receivers
   truncate its records, that transaction's items and values are garbage. *)
let reset t =
  Vec.clear t.ro_key;
  Vec.clear t.ro_ver;
  Vec.scrub t.items;
  Vec.clear t.wregions;
  Vec.clear t.rregions;
  Vec.clear t.info_rid;
  Vec.scrub t.infos;
  groups_scrub t.primaries;
  groups_scrub t.backups;
  accts_clear t.acct;
  groups_clear t.vgroups;
  Vec.clear t.rv_dst;
  Vec.clear t.rv_idx;
  Vec.clear t.ap_dst;
  Vec.scrub t.ap_pay

(* {1 The per-machine pool} *)

type pool = { mutable free : t array; mutable n_free : int; reuse : bool }

let create_pool ~reuse = { free = [||]; n_free = 0; reuse }

let acquire pool =
  let ar =
    if pool.n_free > 0 then begin
      pool.n_free <- pool.n_free - 1;
      pool.free.(pool.n_free)
    end
    else create ()
  in
  ar.refs <- 1;
  ar

let retain ar = ar.refs <- ar.refs + 1

let release pool ar =
  if ar.refs <= 0 then invalid_arg "Arena.release: refcount underflow";
  ar.refs <- ar.refs - 1;
  if ar.refs = 0 && pool.reuse then begin
    reset ar;
    if pool.n_free = Array.length pool.free then begin
      let na = Array.make (max 4 (2 * Array.length pool.free)) ar in
      Array.blit pool.free 0 na 0 pool.n_free;
      pool.free <- na
    end;
    pool.free.(pool.n_free) <- ar;
    pool.n_free <- pool.n_free + 1
  end
