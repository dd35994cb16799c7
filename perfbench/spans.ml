type span = { id : int; parent : int; layer : string; name : string; t0 : float; t1 : float }

type t = { mutable finished : span list; mutable next : int; mutable stack : int list }

let create () = { finished = []; next = 0; stack = [] }

let with_span t ~layer name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let t0 = Unix.gettimeofday () in
  Fun.protect f ~finally:(fun () ->
      let t1 = Unix.gettimeofday () in
      t.stack <- List.tl t.stack;
      t.finished <- { id; parent; layer; name; t0; t1 } :: t.finished)

let spans t = List.sort (fun a b -> compare a.id b.id) t.finished

let self_by_layer spans =
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.parent (s.t0, s.t1)) spans;
  let acc = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let self = Stats.self_time ~lo:s.t0 ~hi:s.t1 ~children:(Hashtbl.find_all children s.id) in
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt acc s.layer) in
      Hashtbl.replace acc s.layer (prev +. self))
    spans;
  List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) acc [])
