(* Host-time spans recorded by the benchmark around each call it makes
   into a layer of the simulator. A span has a name, the layer it charges
   (named after the [lib/] directory the callee lives in, or ["bench"]
   for the benchmark's own op bracket), start and end wall-clock seconds,
   its parent span and the op it belongs to. Spans stay in memory and are
   written out once, at the end of the run.

   With tracing off, [span] calls the thunk directly and records nothing,
   so the untraced run pays one branch per call. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root span. *)
  op : int;  (** -1 outside any op (kernels, correctness passes). *)
  name : string;
  layer : string;
  start : float;
  stop : float;
}

type t = {
  enabled : bool;  (** A traced run. *)
  mutable active : bool;  (** Recording now; traced runs toggle it. *)
  mutable spans : span list;  (* newest first *)
  mutable next_id : int;
  mutable open_ids : int list;  (* innermost first *)
  mutable op : int;
}

let create ~enabled =
  { enabled; active = enabled; spans = []; next_id = 0; open_ids = []; op = -1 }

let enabled t = t.enabled
let set_active t active = t.active <- t.enabled && active
let now = Unix.gettimeofday

let span t ~layer name f =
  if not t.active then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.open_ids with [] -> -1 | p :: _ -> p in
    t.open_ids <- id :: t.open_ids;
    let start = now () in
    let close () =
      let stop = now () in
      t.open_ids <- List.tl t.open_ids;
      t.spans <- { id; parent; op = t.op; name; layer; start; stop } :: t.spans
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

(* Spans opened inside [f] carry op id [op]. *)
let in_op t op f =
  let saved = t.op in
  t.op <- op;
  Fun.protect ~finally:(fun () -> t.op <- saved) f

let spans t = List.rev t.spans
let count t = List.length t.spans

(* A layer's self time over the spans of timed ops: the summed duration of
   its spans minus the part of each covered by its child spans. Children
   never outlive their parent (spans nest by construction), so the
   subtraction is exact. *)
let self_time_by_layer t =
  let op_spans = List.filter (fun (s : span) -> s.op >= 0) t.spans in
  let child_time = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent) in
        Hashtbl.replace child_time s.parent (prev +. (s.stop -. s.start)))
    op_spans;
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let children = Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id) in
      let self = s.stop -. s.start -. children in
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt by_layer s.layer) in
      Hashtbl.replace by_layer s.layer (prev +. self))
    op_spans;
  fun layer -> Option.value ~default:0.0 (Hashtbl.find_opt by_layer layer)

let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"op\":%d,\"name\":%S,\"layer\":%S,\"start_s\":%.9f,\"end_s\":%.9f}\n"
            s.id s.parent s.op s.name s.layer s.start s.stop)
        (spans t))
