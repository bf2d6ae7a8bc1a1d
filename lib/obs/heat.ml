(* Decaying per-region heat. See the interface for the contract; the one
   subtlety here is the lazy decay: counters halve once per elapsed
   half-life, and the cell's timestamp advances by whole half-lives only,
   so decay is independent of how often the cell is probed — probing at
   1 Hz or 1 MHz yields the same integer sequence. *)

open Farm_sim

type cell = {
  mutable h_access : int;
  mutable h_conflict : int;
  mutable h_at : int;  (* decay applied up to this sim time (ns) *)
}

type t = { hl : int; cells : cell Int_tbl.t }

let create ?(half_life_ns = 10_000_000) () =
  if half_life_ns <= 0 then invalid_arg "Heat.create: half_life_ns must be positive";
  { hl = half_life_ns; cells = Int_tbl.create 64 }

let half_life_ns t = t.hl

let decay t c ~now =
  let dt = now - c.h_at in
  if dt >= t.hl then begin
    let k = dt / t.hl in
    if k >= Sys.int_size - 1 then begin
      c.h_access <- 0;
      c.h_conflict <- 0
    end
    else begin
      c.h_access <- c.h_access lsr k;
      c.h_conflict <- c.h_conflict lsr k
    end;
    c.h_at <- c.h_at + (k * t.hl)
  end

let cell t ~now ~region =
  match Int_tbl.find t.cells region with
  | c ->
      decay t c ~now;
      c
  | exception Not_found ->
      let c = { h_access = 0; h_conflict = 0; h_at = now } in
      Int_tbl.add t.cells region c;
      c

let access t ~now ~region =
  let c = cell t ~now ~region in
  c.h_access <- c.h_access + 1

let conflict t ~now ~region =
  let c = cell t ~now ~region in
  c.h_conflict <- c.h_conflict + 1

type score = { hs_region : int; hs_access : int; hs_conflict : int; hs_score : int }

let score ~region ~access ~conflict =
  { hs_region = region; hs_access = access; hs_conflict = conflict;
    hs_score = access + (4 * conflict) }

let order a b =
  match compare b.hs_score a.hs_score with 0 -> compare a.hs_region b.hs_region | c -> c

let report t ~now =
  Int_tbl.fold
    (fun region c acc ->
      decay t c ~now;
      if c.h_access = 0 && c.h_conflict = 0 then acc
      else score ~region ~access:c.h_access ~conflict:c.h_conflict :: acc)
    t.cells []
  |> List.sort order

let merge ts ~now =
  let sums = Hashtbl.create 64 in
  List.iter
    (fun t ->
      Int_tbl.iter
        (fun region c ->
          decay t c ~now;
          if c.h_access > 0 || c.h_conflict > 0 then
            match Hashtbl.find sums region with
            | (a, f) -> Hashtbl.replace sums region (a + c.h_access, f + c.h_conflict)
            | exception Not_found -> Hashtbl.add sums region (c.h_access, c.h_conflict))
        t.cells)
    ts;
  Hashtbl.fold
    (fun region (a, f) acc -> score ~region ~access:a ~conflict:f :: acc)
    sums []
  |> List.sort order
