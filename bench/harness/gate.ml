(* One baseline gate for every bench: a fresh report is compared with a
   checked-in one, row by row, under a bound declared next to each field.

   The bounds are the kinds BENCHMARK.json declares: [Exact] for a
   deterministic field (a pure function of the seed, so any change is a
   change of behaviour), [Floor r] for a higher-is-better field (fresh >=
   baseline / r) and [Ceiling r] for a lower-is-better one (fresh <=
   baseline * r). Fields with no declared bound, such as host wall clock,
   are printed by the bench and not gated. *)

type bound = Exact | Floor of float | Ceiling of float

(* The rows of one table of a report: member [rows] of the top-level
   object, either an array of objects or one object standing alone. A
   produced row is matched with the baseline row whose [key] field is
   equal; a produced row with no baseline row fails. *)
type table = { rows : string; key : string; bounds : (string * bound) list }

type outcome = Pass of string | Fail of string

let rows_of = function
  | Json.Arr l -> l
  | Json.Obj _ as o -> [ o ]
  | Json.Null -> []
  | _ -> raise (Json.Parse_error "rows are neither an array nor an object")

let show = function Json.Str s -> s | v -> Json.to_string v

let check_field ~row name bound fresh base =
  let verdict ok limit =
    let line = Printf.sprintf "%s: %s %s (baseline %s, %s)" row name (show fresh) (show base) limit in
    if ok then Pass line else Fail line
  in
  match (bound, fresh, base) with
  | Exact, _, _ -> verdict (fresh = base) "exact"
  | Floor r, Json.Num f, Json.Num b -> verdict (f >= b /. r) (Printf.sprintf "floor %g" (b /. r))
  | Ceiling r, Json.Num f, Json.Num b -> verdict (f <= b *. r) (Printf.sprintf "ceiling %g" (b *. r))
  | (Floor _ | Ceiling _), _, _ ->
      Fail (Printf.sprintf "%s: %s is not a number in both reports" row name)

(* Every bound of every table, checked against the baseline [file]. *)
let check ~file tables report =
  let baseline = Json.read_file file in
  List.concat_map
    (fun t ->
      let base_rows = rows_of (Json.member t.rows baseline) in
      List.concat_map
        (fun row ->
          let k = Json.member t.key row in
          let label = Printf.sprintf "%s %s=%s" t.rows t.key (show k) in
          match List.find_opt (fun b -> Json.member t.key b = k) base_rows with
          | None -> [ Fail (label ^ ": no baseline row") ]
          | Some b ->
              List.map
                (fun (name, bound) ->
                  check_field ~row:label name bound (Json.member name row) (Json.member name b))
                t.bounds)
        (rows_of (Json.member t.rows report)))
    tables

(* Print every outcome; true iff none failed. *)
let report outcomes =
  List.iter
    (function Pass l -> Fmt.pr "  ok: %s@." l | Fail l -> Fmt.pr "  REGRESSION: %s@." l)
    outcomes;
  List.for_all (function Pass _ -> true | Fail _ -> false) outcomes
