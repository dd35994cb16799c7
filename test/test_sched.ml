(* The timer-wheel scheduler must be observationally identical to the seed
   binary heap it replaced: pops come out in nondecreasing (time, seq)
   order, FIFO on equal timestamps, regardless of how events straddle the
   wheel window, the overflow heap, or already-passed bucket indices.
   [Quilt_util.Heap] pops in that same (time, insertion order), so parity
   against it pins the equivalence the engine's determinism relies on. *)

module Sched = Quilt_platform.Sched
module Heap = Quilt_util.Heap

let make () = Sched.create ~dummy:(-1) ()

let drain_all s =
  let rec go acc =
    match Sched.pop s with
    | None -> List.rev acc
    | Some (t, tag, p) -> go ((t, tag, p) :: acc)
  in
  go []

(* --- units --- *)

let test_fifo_on_equal_times () =
  let s = make () in
  for i = 0 to 9 do
    Sched.schedule s ~time:42.0 ~tag:i i
  done;
  let popped = drain_all s in
  Alcotest.(check (list int))
    "insertion order on ties"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.map (fun (_, _, p) -> p) popped);
  List.iter (fun (t, _, _) -> Alcotest.(check (float 0.0)) "time kept" 42.0 t) popped

(* Events far past the wheel window (default ≈1.05 virtual seconds) go to
   the overflow heap and must cascade back in order. *)
let test_overflow_far_future () =
  let s = make () in
  Sched.schedule s ~time:2_000_000_000.0 ~tag:0 1;
  Sched.schedule s ~time:5.0 ~tag:0 2;
  Sched.schedule s ~time:900_000_000.0 ~tag:0 3;
  Sched.schedule s ~time:1_000_000.0 ~tag:0 4;
  Alcotest.(check (list int))
    "cascade order" [ 2; 4; 3; 1 ]
    (List.map (fun (_, _, p) -> p) (drain_all s))

(* Scheduling behind the cursor (a time at or before an already-popped
   bucket) must not lose the event or break ordering. *)
let test_schedule_behind_cursor () =
  let s = make () in
  Sched.schedule s ~time:500_000.0 ~tag:0 1;
  Alcotest.(check int) "first pop" 1 (Sched.pop_exn s);
  Sched.schedule s ~time:3.0 ~tag:0 2;
  Sched.schedule s ~time:400_000.0 ~tag:0 3;
  Sched.schedule s ~time:600_000.0 ~tag:0 4;
  Alcotest.(check (list int))
    "past events pop first" [ 2; 3; 4 ]
    (List.map (fun (_, _, p) -> p) (drain_all s))

let test_next_time_and_stats () =
  let s = make () in
  Alcotest.(check (float 0.0)) "empty: infinity" infinity (Sched.next_time s);
  Sched.schedule s ~time:10.0 ~tag:7 1;
  Sched.schedule s ~time:4.0 ~tag:8 2;
  Sched.schedule s ~time:20.0 ~tag:9 3;
  Alcotest.(check (float 0.0)) "min pending" 4.0 (Sched.next_time s);
  Alcotest.(check int) "length" 3 (Sched.length s);
  let p = Sched.pop_exn s in
  Alcotest.(check int) "min payload" 2 p;
  Alcotest.(check (float 0.0)) "last_time" 4.0 (Sched.last_time s);
  Alcotest.(check int) "last_tag" 8 (Sched.last_tag s);
  ignore (drain_all s);
  Alcotest.(check int) "scheduled_total" 3 (Sched.scheduled_total s);
  Alcotest.(check int) "popped_total" 3 (Sched.popped_total s);
  Alcotest.(check int) "peak_length" 3 (Sched.peak_length s);
  Alcotest.(check bool) "empty again" true (Sched.is_empty s)

(* Thousands of events across many buckets stress the freelist growth and
   the occupancy-bitmap scan. *)
let test_bulk_reverse_order () =
  let s = make () in
  let n = 5_000 in
  for i = n - 1 downto 0 do
    Sched.schedule s ~time:(float_of_int (i * 37)) ~tag:0 i
  done;
  let popped = List.map (fun (_, _, p) -> p) (drain_all s) in
  Alcotest.(check int) "all popped" n (List.length popped);
  Alcotest.(check (list int)) "sorted by time" (List.init n (fun i -> i)) popped

(* --- qcheck parity harness: wheel vs the reference heap --- *)

(* The reference side: a binary heap keyed by time, FIFO on ties, carrying
   (tag, payload) as its value. *)
let heap_pop h = Option.map (fun (t, (tag, p)) -> (t, tag, p)) (Heap.pop h)

let heap_drain h =
  let rec go acc = match heap_pop h with None -> List.rev acc | Some e -> go (e :: acc) in
  go []

(* An op stream drives both schedulers in lockstep; every pop must agree on
   (time, tag, payload).  Times are drawn from a bounded grid so ties are
   frequent, and the range (0 .. 5e6 µs) straddles the wheel window, so
   pushes land in due heap, wheel buckets and overflow alike. *)
let apply_ops ops =
  let w = make () in
  let h = Heap.create () in
  let counter = ref 0 in
  let ok = ref true in
  List.iter
    (fun op ->
      if op mod 4 = 3 then begin
        (* pop both, compare *)
        (match (Sched.pop w, heap_pop h) with
        | None, None -> ()
        | Some a, Some b -> if a <> b then ok := false
        | Some _, None | None, Some _ -> ok := false)
      end
      else begin
        let t = float_of_int (op / 4 mod 5_000_000) /. 3.0 in
        incr counter;
        Sched.schedule w ~time:t ~tag:!counter !counter;
        Heap.push h t (!counter, !counter)
      end)
    ops;
  !ok && drain_all w = heap_drain h

let prop_wheel_matches_seed_heap =
  let open QCheck in
  Test.make ~count:300 ~name:"sched: wheel pops identical to seed heap"
    (list_of_size Gen.(int_range 0 400) (int_bound 20_000_003))
    apply_ops

(* Dense ties: many events on few distinct timestamps is the engine's
   common case (batched completions at one instant) and the FIFO edge the
   heap's seq field exists for. *)
let prop_parity_under_heavy_ties =
  let open QCheck in
  Test.make ~count:200 ~name:"sched: parity under heavy timestamp ties"
    (list_of_size Gen.(int_range 0 200) (int_bound 40))
    apply_ops

let suite =
  [
    ( "sched.wheel",
      [
        Alcotest.test_case "fifo on equal times" `Quick test_fifo_on_equal_times;
        Alcotest.test_case "overflow far future" `Quick test_overflow_far_future;
        Alcotest.test_case "schedule behind cursor" `Quick test_schedule_behind_cursor;
        Alcotest.test_case "next_time and stats" `Quick test_next_time_and_stats;
        Alcotest.test_case "bulk reverse order" `Quick test_bulk_reverse_order;
      ] );
    ( "sched.parity",
      [
        QCheck_alcotest.to_alcotest prop_wheel_matches_seed_heap;
        QCheck_alcotest.to_alcotest prop_parity_under_heavy_ties;
      ] );
  ]
