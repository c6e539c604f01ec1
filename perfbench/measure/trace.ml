type span = {
  id : int;
  parent : int option;
  request : int;
  name : string;
  start : float;
  stop : float;
}

type t = {
  mutable next_id : int;
  mutable recorded : span list;  (* reversed completion order *)
  mutable open_ : (int * int) list;  (* (id, request) of open spans *)
}

let create () = { next_id = 0; recorded = []; open_ = [] }

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let current t =
  match t.open_ with
  | [] -> (None, 0)
  | (id, request) :: _ -> (Some id, request)

let span t ?request name f =
  let parent, inherited = current t in
  let request = Option.value request ~default:inherited in
  let id = fresh_id t in
  t.open_ <- (id, request) :: t.open_;
  let start = Unix.gettimeofday () in
  let finish () =
    let stop = Unix.gettimeofday () in
    t.open_ <- List.tl t.open_;
    t.recorded <- { id; parent; request; name; start; stop } :: t.recorded
  in
  match f () with
  | result ->
    finish ();
    result
  | exception e ->
    finish ();
    raise e

let record t name ~start ~stop =
  let parent, request = current t in
  let id = fresh_id t in
  t.recorded <- { id; parent; request; name; start; stop } :: t.recorded

let spans t = List.sort (fun a b -> compare a.id b.id) t.recorded

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, last) (a, b) ->
        match last with
        | None -> (total, Some (a, b))
        | Some (la, lb) ->
          if a <= lb then (total, Some (la, Float.max lb b))
          else (total +. (lb -. la), Some (a, b)))
      (0., None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

let self_times spans =
  let by_parent = Hashtbl.create 64 in
  List.iter
    (fun c ->
      match c.parent with
      | Some p -> Hashtbl.add by_parent p (c.start, c.stop)
      | None -> ())
    spans;
  let totals = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        (s.stop -. s.start)
        -. covered ~lo:s.start ~hi:s.stop (Hashtbl.find_all by_parent s.id)
      in
      Hashtbl.replace totals s.name
        (self +. Option.value (Hashtbl.find_opt totals s.name) ~default:0.))
    spans;
  Hashtbl.fold (fun name total acc -> (name, total) :: acc) totals []
  |> List.sort compare

let to_json_lines spans =
  let buffer = Buffer.create 4096 in
  List.iter
    (fun s ->
      Printf.bprintf buffer
        "{\"id\": %d, \"parent\": %s, \"request\": %d, \"name\": %S, \
         \"start\": %.6f, \"stop\": %.6f}\n"
        s.id
        (match s.parent with None -> "null" | Some p -> string_of_int p)
        s.request s.name s.start s.stop)
    spans;
  Buffer.contents buffer
