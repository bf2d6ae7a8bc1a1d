type 'a t = {
  items : 'a Queue.t;
  waiters : (('a, exn) result -> unit) Queue.t;
}

let create () = { items = Queue.create (); waiters = Queue.create () }

let length t = Queue.length t.items

let send t v =
  match Queue.take_opt t.waiters with
  | Some waiter -> waiter (Ok v)
  | None -> Queue.add v t.items

let recv t =
  match Queue.take_opt t.items with
  | Some v -> v
  | None -> Proc.suspend (fun resume -> Queue.add resume t.waiters)

let recv_opt t = Queue.take_opt t.items
