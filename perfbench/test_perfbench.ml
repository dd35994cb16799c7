(* The benchmark's own arithmetic: percentiles with enough samples beyond
   them, span self time, the failure ratio and request accounting. *)

module Stats = Perfbench_lib.Stats
module Spans = Perfbench_lib.Spans

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-9

let raises f = match f () with _ -> false | exception Invalid_argument _ -> true

let () =
  (* 1..100 shuffled: p90 is 90 and exactly ten samples lie beyond it. *)
  let xs = Array.init 100 (fun i -> float_of_int (((i * 37) mod 100) + 1)) in
  check "p90 of 1..100" (Stats.percentile xs 90.0 = 90.0);
  check "ten beyond p90 of 100" (List.length (List.filter (fun x -> x > 90.0) (Array.to_list xs)) = 10);
  check "beyond p90 of 100" (Stats.beyond ~n:100 90.0 = 10);
  check "p90 needs 100 samples for ten beyond" (Stats.min_samples ~p:90.0 ~beyond:10 = 100);
  check "p99 needs 1000 samples for ten beyond" (Stats.min_samples ~p:99.0 ~beyond:10 = 1000);
  check "99 samples leave nine beyond p90" (Stats.beyond ~n:99 90.0 = 9);
  check "input left unsorted" (xs.(0) = 1.0 && xs.(1) = 38.0);
  check "median of odd count" (Stats.median [| 5.0; 1.0; 3.0 |] = 3.0);
  check "median of even count is the lower middle" (Stats.median [| 4.0; 1.0; 3.0; 2.0 |] = 2.0);
  check "p100 is the maximum" (Stats.percentile [| 2.0; 9.0; 4.0 |] 100.0 = 9.0);
  check "single sample" (Stats.percentile [| 7.0 |] 99.0 = 7.0);
  check "empty sample raises" (raises (fun () -> Stats.percentile [||] 50.0));
  check "p = 0 raises" (raises (fun () -> Stats.percentile [| 1.0 |] 0.0));

  (* Self time: duration minus the union of child intervals, clipped. *)
  check "no children" (close (Stats.self_time ~lo:0.0 ~hi:10.0 ~children:[]) 10.0);
  let self lo hi children = Stats.self_time ~lo ~hi ~children in
  check "disjoint children" (close (self 0.0 10.0 [ (1.0, 3.0); (5.0, 6.0) ]) 7.0);
  check "overlapping children count once"
    (close (self 0.0 10.0 [ (1.0, 4.0); (3.0, 6.0); (2.0, 5.0) ]) 5.0);
  check "children clipped to the span" (close (self 2.0 8.0 [ (0.0, 3.0); (7.0, 12.0) ]) 4.0);
  check "child outside the span" (close (self 2.0 8.0 [ (9.0, 12.0) ]) 6.0);
  check "fully covered" (close (self 0.0 4.0 [ (0.0, 2.0); (2.0, 4.0) ]) 0.0);

  (* Per-layer self time from recorded spans: a parent's self time
     excludes its children, a grandchild counts only toward its own layer. *)
  let mk id parent layer t0 t1 = { Spans.id; parent; layer; name = layer; t0; t1 } in
  let spans =
    [
      mk 0 (-1) "core" 0.0 10.0;
      mk 1 0 "platform" 1.0 6.0;
      mk 2 1 "tracing" 2.0 3.0;
      mk 3 0 "cluster" 7.0 9.0;
    ]
  in
  let self = Spans.self_by_layer spans in
  check "core self" (close (List.assoc "core" self) 3.0);
  check "platform self" (close (List.assoc "platform" self) 4.0);
  check "tracing self" (close (List.assoc "tracing" self) 1.0);
  check "cluster self" (close (List.assoc "cluster" self) 2.0);
  check "self times sum to the root span" (close (List.fold_left (fun a (_, s) -> a +. s) 0.0 self) 10.0);
  let sp = Spans.create () in
  let v =
    Spans.with_span sp ~layer:"core" "outer" (fun () -> Spans.with_span sp ~layer:"ir" "inner" (fun () -> 42))
  in
  (match Spans.spans sp with
  | [ outer; inner ] ->
      check "recorder returns the value" (v = 42);
      check "recorder nests" (outer.Spans.parent = -1 && inner.Spans.parent = outer.Spans.id);
      check "child inside parent" (outer.Spans.t0 <= inner.Spans.t0 && inner.Spans.t1 <= outer.Spans.t1)
  | _ -> check "recorder keeps two spans" false);
  (try Spans.with_span sp ~layer:"core" "raises" (fun () -> failwith "boom") with Failure _ -> ());
  check "span closed when the thunk raises" (List.length (Spans.spans sp) = 3);

  (* Failure ratio. *)
  check "no failures" (Stats.failure_ratio ~attempted:10 ~failed:0 = 0.0);
  check "some failures" (close (Stats.failure_ratio ~attempted:8 ~failed:2) 0.25);
  check "all failed" (Stats.failure_ratio ~attempted:3 ~failed:3 = 1.0);
  check "nothing attempted raises" (raises (fun () -> Stats.failure_ratio ~attempted:0 ~failed:0));
  check "more failed than attempted raises" (raises (fun () -> Stats.failure_ratio ~attempted:1 ~failed:2));

  (* Request accounting: unanswered and twice-answered requests fail, and
     a second answer breaks offered = successes + failures + unanswered. *)
  let acc = Stats.request_failures in
  check "all answered" (acc ~offered:10 ~succeeded:9 ~failed:1 ~unanswered:0 ~duplicates:0 = (1, true));
  check "unanswered fail" (acc ~offered:10 ~succeeded:8 ~failed:0 ~unanswered:2 ~duplicates:0 = (2, true));
  check "answered twice" (acc ~offered:10 ~succeeded:11 ~failed:0 ~unanswered:0 ~duplicates:1 = (1, false));

  if !failures > 0 then exit 1 else print_endline "perfbench arithmetic: all checks passed"
