type 'a state = Empty of (('a, exn) result -> unit) list | Full of 'a

type 'a t = { mutable state : 'a state }

let create () = { state = Empty [] }

let peek t = match t.state with Full v -> Some v | Empty _ -> None

let fill t v =
  match t.state with
  | Full _ -> invalid_arg "Ivar.fill: already full"
  | Empty waiters ->
      t.state <- Full v;
      List.iter (fun w -> w (Ok v)) (List.rev waiters)

let fill_if_empty t v = match t.state with Full _ -> () | Empty _ -> fill t v

let on_fill t fn =
  match t.state with
  | Full v -> fn v
  | Empty waiters ->
      t.state <- Empty ((fun res -> match res with Ok v -> fn v | Error _ -> ()) :: waiters)

let read t =
  match t.state with
  | Full v -> v
  | Empty _ ->
      Proc.suspend (fun resume ->
          match t.state with
          | Full v -> resume (Ok v)
          | Empty waiters -> t.state <- Empty (resume :: waiters))
