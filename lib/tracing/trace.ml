type call_kind = Sync | Async

type span = { ts : float; caller : string option; callee : string; kind : call_kind }

type resource_sample = {
  rs_ts : float;
  container : int;
  fn : string;
  cpu_us_cum : float;
  mem_mb : float;
  invocations_cum : int;
}

let chunk_bits = 10
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1

(* Append-only columns: a directory of fixed-size chunks.  Growing appends
   one chunk (and at most doubles the directory of chunk pointers), so a
   stored value is never copied and a long window never holds a transient
   second copy of a column at its peak.  Chunk [k] is allocated iff
   [k < ceil (len / chunk_size)].  Float and int columns are written out
   separately: a functor over the element type would box every float it
   reads or writes. *)
module Fcol = struct
  type t = { mutable chunks : Float.Array.t array; mutable len : int }

  let no_chunk = Float.Array.create 0
  let create () = { chunks = [||]; len = 0 }

  let get c i =
    Float.Array.unsafe_get (Array.unsafe_get c.chunks (i lsr chunk_bits)) (i land chunk_mask)

  let set c i x =
    Float.Array.unsafe_set (Array.unsafe_get c.chunks (i lsr chunk_bits)) (i land chunk_mask) x

  let push c x =
    let k = c.len lsr chunk_bits in
    if c.len land chunk_mask = 0 then begin
      if k = Array.length c.chunks then begin
        let dir = Array.make (max 4 (2 * k)) no_chunk in
        Array.blit c.chunks 0 dir 0 k;
        c.chunks <- dir
      end;
      c.chunks.(k) <- Float.Array.create chunk_size
    end;
    Float.Array.unsafe_set c.chunks.(k) (c.len land chunk_mask) x;
    c.len <- c.len + 1

  let truncate c n =
    for k = (n + chunk_mask) lsr chunk_bits to Array.length c.chunks - 1 do
      c.chunks.(k) <- no_chunk
    done;
    c.len <- n
end

module Icol = struct
  type t = { mutable chunks : int array array; mutable len : int }

  let create () = { chunks = [||]; len = 0 }
  let get c i = Array.unsafe_get (Array.unsafe_get c.chunks (i lsr chunk_bits)) (i land chunk_mask)
  let set c i x = Array.unsafe_set (Array.unsafe_get c.chunks (i lsr chunk_bits)) (i land chunk_mask) x

  let push c x =
    let k = c.len lsr chunk_bits in
    if c.len land chunk_mask = 0 then begin
      if k = Array.length c.chunks then begin
        let dir = Array.make (max 4 (2 * k)) [||] in
        Array.blit c.chunks 0 dir 0 k;
        c.chunks <- dir
      end;
      c.chunks.(k) <- Array.make chunk_size 0
    end;
    Array.unsafe_set c.chunks.(k) (c.len land chunk_mask) x;
    c.len <- c.len + 1

  let truncate c n =
    for k = (n + chunk_mask) lsr chunk_bits to Array.length c.chunks - 1 do
      c.chunks.(k) <- [||]
    done;
    c.len <- n
end

(* One function's resource series (the InfluxDB measurement). *)
type samples = { s_ts : Fcol.t; s_container : Icol.t; s_cpu : Fcol.t; s_mem : Fcol.t; s_inv : Icol.t }

module Names = Hashtbl.Make (String)

(* Container ids are counters, already spread over the buckets; the
   identity hash keeps a slot lookup free of a C call. *)
module Slots = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

type store = {
  ids : int Names.t;
  mutable names : string array;
  mutable samples : samples array;  (** Indexed by function id. *)
  sp_ts : Fcol.t;
  sp_caller : Icol.t;  (** Caller id; [-1] for the client. *)
  sp_callee : Icol.t;  (** Callee id × 2 + 1 for an asynchronous call. *)
}

let create () =
  {
    ids = Names.create 32;
    names = [||];
    samples = [||];
    sp_ts = Fcol.create ();
    sp_caller = Icol.create ();
    sp_callee = Icol.create ();
  }

let fn_count st = Names.length st.ids
let fn_name st id = st.names.(id)
let fn_id st name = match Names.find st.ids name with id -> id | exception Not_found -> -1

let new_samples () =
  { s_ts = Fcol.create (); s_container = Icol.create (); s_cpu = Fcol.create (); s_mem = Fcol.create (); s_inv = Icol.create () }

let intern st name =
  match Names.find st.ids name with
  | id -> id
  | exception Not_found ->
      let id = Names.length st.ids in
      if id = Array.length st.names then begin
        let cap = max 16 (2 * id) in
        let names = Array.make cap "" and samples = Array.make cap (new_samples ()) in
        Array.blit st.names 0 names 0 id;
        Array.blit st.samples 0 samples 0 id;
        st.names <- names;
        st.samples <- samples
      end;
      st.names.(id) <- name;
      st.samples.(id) <- new_samples ();
      Names.add st.ids name id;
      id

let push_span st ~ts ~caller ~callee_code =
  Fcol.push st.sp_ts ts;
  Icol.push st.sp_caller caller;
  Icol.push st.sp_callee callee_code

let record_root st ~ts ~callee = push_span st ~ts ~caller:(-1) ~callee_code:(2 * intern st callee)

let record_call st ~ts ~caller ~callee ~kind =
  let caller = intern st caller in
  let async = match kind with Async -> 1 | Sync -> 0 in
  push_span st ~ts ~caller ~callee_code:((2 * intern st callee) + async)

let record_sample st ~ts ~fn ~container ~cpu_us_cum ~mem_mb ~invocations_cum =
  let s = st.samples.(intern st fn) in
  Fcol.push s.s_ts ts;
  Icol.push s.s_container container;
  Fcol.push s.s_cpu cpu_us_cum;
  Fcol.push s.s_mem mem_mb;
  Icol.push s.s_inv invocations_cum

let span_count st = st.sp_ts.Fcol.len

let iter_spans st ~since f =
  for i = 0 to st.sp_ts.Fcol.len - 1 do
    if Fcol.get st.sp_ts i >= since then f (Icol.get st.sp_caller i) (Icol.get st.sp_callee i)
  done

let count_roots st ~since ~entry =
  let id = fn_id st entry and n = ref 0 in
  if id >= 0 then
    for i = 0 to st.sp_ts.Fcol.len - 1 do
      if
        Icol.get st.sp_caller i < 0
        && Icol.get st.sp_callee i lsr 1 = id
        && Fcol.get st.sp_ts i >= since
      then incr n
    done;
  !n

let spans st ?(since = neg_infinity) () =
  let acc = ref [] in
  for i = st.sp_ts.Fcol.len - 1 downto 0 do
    let ts = Fcol.get st.sp_ts i in
    if ts >= since then begin
      let caller = Icol.get st.sp_caller i and code = Icol.get st.sp_callee i in
      acc :=
        {
          ts;
          caller = (if caller < 0 then None else Some st.names.(caller));
          callee = st.names.(code lsr 1);
          kind = (if code land 1 = 1 then Async else Sync);
        }
        :: !acc
    end
  done;
  !acc

let resource_samples st ~fn =
  match fn_id st fn with
  | -1 -> []
  | id ->
      let s = st.samples.(id) and acc = ref [] in
      for i = s.s_ts.Fcol.len - 1 downto 0 do
        acc :=
          {
            rs_ts = Fcol.get s.s_ts i;
            container = Icol.get s.s_container i;
            fn;
            cpu_us_cum = Fcol.get s.s_cpu i;
            mem_mb = Fcol.get s.s_mem i;
            invocations_cum = Icol.get s.s_inv i;
          }
          :: !acc
      done;
      !acc

(* Per-container maxima of one function's windowed series, in the order
   the containers first appear.  Slots are dense: [slot] maps a container
   to its index in the growable [cpu]/[inv]/[mem] arrays, so a sample
   costs one int lookup and no allocation. *)
let container_maxima st id ~since =
  let s = st.samples.(id) in
  let slot = Slots.create 8 in
  let cids = ref (Array.make 8 0) and inv = ref (Array.make 8 0) in
  let cpu = ref (Float.Array.make 8 0.0) and mem = ref (Float.Array.make 8 0.0) in
  for i = 0 to s.s_ts.Fcol.len - 1 do
    if Fcol.get s.s_ts i >= since then begin
      let cid = Icol.get s.s_container i in
      let k =
        match Slots.find slot cid with
        | k -> k
        | exception Not_found ->
            let k = Slots.length slot in
            if k = Array.length !cids then begin
              let grow a fill = Array.append a (Array.make k fill) in
              let growf a = Float.Array.append a (Float.Array.make k 0.0) in
              cids := grow !cids 0;
              inv := grow !inv 0;
              cpu := growf !cpu;
              mem := growf !mem
            end;
            Slots.add slot cid k;
            !cids.(k) <- cid;
            k
      in
      Float.Array.set !cpu k (Float.max (Float.Array.get !cpu k) (Fcol.get s.s_cpu i));
      !inv.(k) <- max !inv.(k) (Icol.get s.s_inv i);
      Float.Array.set !mem k (Float.max (Float.Array.get !mem k) (Fcol.get s.s_mem i))
    end
  done;
  List.init (Slots.length slot) (fun k ->
      (!cids.(k), Float.Array.get !cpu k, !inv.(k), Float.Array.get !mem k))

(* Keeps the rows [keep] accepts, in order, moving each kept row down over
   the dropped ones; returns the new length. *)
let compact n keep move =
  let j = ref 0 in
  for i = 0 to n - 1 do
    if keep i then begin
      if i <> !j then move i !j;
      incr j
    end
  done;
  !j

let evict_before st t =
  let n =
    compact (span_count st)
      (fun i -> Fcol.get st.sp_ts i >= t)
      (fun i j ->
        Fcol.set st.sp_ts j (Fcol.get st.sp_ts i);
        Icol.set st.sp_caller j (Icol.get st.sp_caller i);
        Icol.set st.sp_callee j (Icol.get st.sp_callee i))
  in
  Fcol.truncate st.sp_ts n;
  Icol.truncate st.sp_caller n;
  Icol.truncate st.sp_callee n;
  for id = 0 to fn_count st - 1 do
    let s = st.samples.(id) in
    let n =
      compact s.s_ts.Fcol.len
        (fun i -> Fcol.get s.s_ts i >= t)
        (fun i j ->
          Fcol.set s.s_ts j (Fcol.get s.s_ts i);
          Icol.set s.s_container j (Icol.get s.s_container i);
          Fcol.set s.s_cpu j (Fcol.get s.s_cpu i);
          Fcol.set s.s_mem j (Fcol.get s.s_mem i);
          Icol.set s.s_inv j (Icol.get s.s_inv i))
    in
    Fcol.truncate s.s_ts n;
    Icol.truncate s.s_container n;
    Fcol.truncate s.s_cpu n;
    Fcol.truncate s.s_mem n;
    Icol.truncate s.s_inv n
  done
