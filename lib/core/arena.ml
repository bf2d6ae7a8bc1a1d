(* Per-commit scratch arenas (allocation discipline, DESIGN.md).

   The commit protocol needs a handful of small, short-lived groupings per
   transaction: write items by destination, region ids written, per-
   participant reservation accounting. Building these out of fresh
   hashtables and cons lists cost ~tens of KB of heap per commit; an arena
   holds them as flat growable arrays.

   Every [Commit.commit] creates its own arena. The background
   COMMIT-PRIMARY and TRUNCATE processes that outlive the call close over
   it, and the GC reclaims it once the last of them has finished: no
   arena is ever shared or reused, so no state can leak from one
   transaction into the next.

   The arena owns only coordinator-side SCRATCH. Anything that crosses the
   wire and can be retained by a receiver — [Wire.write_item]s,
   [Wire.record] payloads, the [regions_written] list shared by LOCK and
   COMMIT-BACKUP — is freshly allocated: ring logs keep records resident
   until truncation and recovery reads them back long after the
   coordinator has moved on. *)

(* {1 Growable flat vectors}

   A vector grows by filling the new array with the element being pushed,
   so it needs no placeholder element. [clear] only rewinds the count. *)

module Vec = struct
  type 'a t = { mutable a : 'a array; mutable n : int }

  let create () = { a = [||]; n = 0 }
  let length v = v.n
  let clear v = v.n <- 0
  let get v i = v.a.(i)

  let push v x =
    let cap = Array.length v.a in
    if v.n = cap then begin
      let na = Array.make (if cap = 0 then 8 else 2 * cap) x in
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

   Items grouped by destination machine, in first-touch order. Linear
   search — a transaction talks to a handful of machines. The searches
   are top-level functions, not local closures, which ocamlopt would
   allocate on every call. *)

type 'a group = { g_dst : int; g_items : 'a Vec.t }
type 'a groups = 'a group Vec.t

let rec group_from (g : 'a groups) dst i =
  if i = g.n then begin
    let gr = { g_dst = dst; g_items = Vec.create () } in
    Vec.push g gr;
    gr
  end
  else
    let gr = Vec.get g i in
    if gr.g_dst = dst then gr else group_from g dst (i + 1)

let group_add g ~dst x = Vec.push (group_from g dst 0).g_items x

(* {1 Participant accounting}

   Per destination log: bytes reserved, bytes consumed, and whether this
   transaction's truncation entry has been queued (its allowance is then
   spoken for). Replaces three hashtables. *)

type acct = {
  a_dst : int;
  mutable a_reserved : int;
  mutable a_consumed : int;
  mutable a_trunc_queued : bool;
}

let rec acct_from (t : acct Vec.t) dst i =
  if i = t.n then begin
    let a = { a_dst = dst; a_reserved = 0; a_consumed = 0; a_trunc_queued = false } in
    Vec.push t a;
    a
  end
  else
    let a = Vec.get t i in
    if a.a_dst = dst then a else acct_from t dst (i + 1)

let acct_for t dst = acct_from t dst 0

(* Deterministic participant order for truncation queueing and leftover
   release: sorted by destination id, like the old sorted participant
   list. In-place insertion sort. *)
let accts_sort (t : acct Vec.t) =
  let a = t.a in
  for i = 1 to t.n - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j).a_dst > x.a_dst do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

(* {1 The arena} *)

type t = {
  (* read set not written (validation input): address + observed version *)
  ro_key : int Vec.t;  (* packed addresses *)
  ro_ver : int Vec.t;
  (* write items in address order; the records themselves are wire-owned *)
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
  acct : acct Vec.t;
  (* staging for one doorbell-batched log-append group *)
  ap_dst : int Vec.t;
  ap_pay : Wire.record Vec.t;
}

let create () =
  {
    ro_key = Vec.create ();
    ro_ver = Vec.create ();
    items = Vec.create ();
    wregions = Vec.create ();
    rregions = Vec.create ();
    info_rid = Vec.create ();
    infos = Vec.create ();
    primaries = Vec.create ();
    backups = Vec.create ();
    acct = Vec.create ();
    ap_dst = Vec.create ();
    ap_pay = Vec.create ();
  }
