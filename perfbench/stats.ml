let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  if not (p > 0.0 && p <= 100.0) then invalid_arg "Stats.percentile: p outside (0, 100]";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  sorted.(max 1 (min n rank) - 1)

let median xs = percentile xs 50.0

let beyond ~n p = n - int_of_float (Float.ceil (p /. 100.0 *. float_of_int n))

let min_samples ~p ~beyond:k =
  let rec go n = if beyond ~n p >= k then n else go (n + 1) in
  go 1

let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max lo a and b = Float.min hi b in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort (fun (a, _) (b, _) -> Float.compare a b) clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0.0, None) sorted
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

let self_time ~lo ~hi ~children = hi -. lo -. covered ~lo ~hi children

let failure_ratio ~attempted ~failed =
  if attempted < 1 || failed < 0 || failed > attempted then
    invalid_arg "Stats.failure_ratio: need 0 <= failed <= attempted, attempted >= 1";
  float_of_int failed /. float_of_int attempted

let request_failures ~offered ~succeeded ~failed ~unanswered ~duplicates =
  (failed + unanswered + duplicates, offered = succeeded + failed + unanswered)
