module Perpetual = Perple_harness.Perpetual
module Outcome = Perple_litmus.Outcome
module OC = Outcome_convert
module Metrics = Perple_util.Metrics
module Trace_event = Perple_util.Trace_event

type result = { counts : int array; frames_examined : int; evaluations : int }

(* Wrap a counting kernel in the ambient observability: one span plus the
   frames/evaluations counters per call, nothing when no sink is
   installed.  The kernels themselves stay uninstrumented — their inner
   loops are the hot path. *)
let observed kernel f =
  let t0 = Trace_event.now () in
  let r = f () in
  (match Metrics.active () with
  | Some m ->
    Metrics.add m ("count." ^ kernel ^ ".calls") 1;
    Metrics.add m "count.frames_examined" r.frames_examined;
    Metrics.add m "count.evaluations" r.evaluations
  | None -> ());
  Trace_event.complete ~name:("count." ^ kernel) ~since:t0
    ~args:
      [
        ("frames", Trace_event.Int r.frames_examined);
        ("evaluations", Trace_event.Int r.evaluations);
      ]
    ();
  r

let frames_exhaustive ~tl ~iterations =
  let rec pow acc i =
    if i = 0 then acc
    else begin
      if acc > max_int / iterations then
        invalid_arg "Count.frames_exhaustive: overflow";
      pow (acc * iterations) (i - 1)
    end
  in
  pow 1 tl

(* --- Reference odometer (Algorithm 1, verbatim) -------------------------- *)

let exhaustive_reference (conv : Convert.t) ~outcomes ~run =
  let tl = Array.length conv.Convert.load_threads in
  let n = run.Perpetual.iterations in
  let total = frames_exhaustive ~tl ~iterations:n in
  let outcomes = Array.of_list outcomes in
  let counts = Array.make (Array.length outcomes) 0 in
  let bufs = run.Perpetual.bufs in
  let frame = Array.make tl 0 in
  let evaluations = ref 0 in
  (* Odometer over the T_L-dimensional frame space. *)
  let rec visit dim =
    if dim = tl then begin
      let rec first i =
        if i >= Array.length outcomes then ()
        else begin
          incr evaluations;
          if Outcome_convert.eval conv outcomes.(i) ~bufs ~frame then
            counts.(i) <- counts.(i) + 1
          else first (i + 1)
        end
      in
      first 0
    end
    else
      for i = 0 to n - 1 do
        frame.(dim) <- i;
        visit (dim + 1)
      done
  in
  if tl > 0 then visit 0;
  { counts; frames_examined = total; evaluations = !evaluations }

let exhaustive_independent_reference (conv : Convert.t) ~outcomes ~run =
  let tl = Array.length conv.Convert.load_threads in
  let n = run.Perpetual.iterations in
  let total = frames_exhaustive ~tl ~iterations:n in
  let outcomes = Array.of_list outcomes in
  let counts = Array.make (Array.length outcomes) 0 in
  let bufs = run.Perpetual.bufs in
  let frame = Array.make tl 0 in
  let evaluations = ref 0 in
  let rec visit dim =
    if dim = tl then
      Array.iteri
        (fun i o ->
          incr evaluations;
          if Outcome_convert.eval conv o ~bufs ~frame then
            counts.(i) <- counts.(i) + 1)
        outcomes
    else
      for i = 0 to n - 1 do
        frame.(dim) <- i;
        visit (dim + 1)
      done
  in
  if tl > 0 then visit 0;
  { counts; frames_examined = total; evaluations = !evaluations }

(* --- Heuristic (Algorithm 2) --------------------------------------------- *)

let heuristic (conv : Convert.t) ~outcomes ~run =
  let n = run.Perpetual.iterations in
  let compiled =
    Array.of_list
      (List.map
         (fun (o, plan) -> Outcome_convert.compile_heuristic conv o plan)
         outcomes)
  in
  let nout = Array.length compiled in
  let counts = Array.make nout 0 in
  let bufs = run.Perpetual.bufs in
  let evaluations = ref 0 in
  (* First match per iteration, as a loop: a local recursive function
     here would allocate its closure once per iteration. *)
  for i = 0 to n - 1 do
    let j = ref 0 in
    while !j < nout do
      incr evaluations;
      if Outcome_convert.eval_compiled compiled.(!j) ~bufs ~iterations:n ~n:i
      then begin
        counts.(!j) <- counts.(!j) + 1;
        j := nout
      end
      else incr j
    done
  done;
  { counts; frames_examined = n; evaluations = !evaluations }

let heuristic_independent (conv : Convert.t) ~outcomes ~run =
  let n = run.Perpetual.iterations in
  let compiled =
    Array.of_list
      (List.map
         (fun o ->
           Outcome_convert.compile_heuristic conv o
             (Outcome_convert.heuristic_plan conv o))
         outcomes)
  in
  let nout = Array.length compiled in
  let counts = Array.make nout 0 in
  let bufs = run.Perpetual.bufs in
  for i = 0 to n - 1 do
    for j = 0 to nout - 1 do
      if Outcome_convert.eval_compiled compiled.(j) ~bufs ~iterations:n ~n:i
      then counts.(j) <- counts.(j) + 1
    done
  done;
  { counts; frames_examined = n; evaluations = n * nout }

(* --- Factorized exhaustive counting -------------------------------------- *)

(* Fenwick (binary indexed) tree over [0, n): point add, range sum. *)
module Bit = struct
  type t = int array

  let create n : t = Array.make (n + 1) 0

  let add (t : t) i v =
    let i = ref (i + 1) in
    while !i < Array.length t do
      t.(!i) <- t.(!i) + v;
      i := !i + (!i land - !i)
    done

  (* Sum over [0, i). *)
  let prefix (t : t) i =
    let s = ref 0 and i = ref i in
    while !i > 0 do
      s := !s + t.(!i);
      i := !i - (!i land - !i)
    done;
    !s

  let range (t : t) lo hi = if hi < lo then 0 else prefix t (hi + 1) - prefix t lo
end

let shape_name = function
  | OC.Bitset -> "bitset"
  | OC.Pair -> "pair"
  | OC.Product -> "product"

(* Count the frames of one component that satisfy its conditions.  The
   three shapes trade generality for speed; all are exact. *)
let count_component t (shape, comp) ~bufs ~n ~frame ~pins ~evaluations =
  Metrics.incr ("count.component." ^ shape_name shape);
  match (shape : OC.shape) with
  | OC.Bitset ->
    let d = comp.OC.comp_dims.(0) in
    let c = ref 0 in
    for i = 0 to n - 1 do
      frame.(d) <- i;
      if OC.eval_component t comp ~bufs ~frame ~pins then incr c
    done;
    evaluations := !evaluations + n;
    !c
  | OC.Pair ->
    (* Row [i] of dimension [f] admits an interval of [g]-iterations and
       vice versa; a pair counts iff each side lies in the other's
       interval.  Sweep [i] keeping the active [g]-rows in a Fenwick
       tree: O(n log n) instead of the odometer's O(n^2). *)
    let f = comp.OC.comp_dims.(0) and g = comp.OC.comp_dims.(1) in
    let iv_f =
      Array.init n (fun i ->
          OC.pair_interval t comp ~dim:f ~bufs ~iterations:n i)
    in
    let iv_g =
      Array.init n (fun j ->
          OC.pair_interval t comp ~dim:g ~bufs ~iterations:n j)
    in
    evaluations := !evaluations + (2 * n);
    let add_at = Array.make (n + 1) [] and rem_at = Array.make (n + 1) [] in
    Array.iteri
      (fun j iv ->
        match iv with
        | Some (lo, hi) when lo <= hi && lo < n ->
          let hi = min hi (n - 1) in
          add_at.(lo) <- j :: add_at.(lo);
          rem_at.(hi + 1) <- j :: rem_at.(hi + 1)
        | Some _ | None -> ())
      iv_g;
    let bit = Bit.create n in
    let total = ref 0 in
    for i = 0 to n - 1 do
      List.iter (fun j -> Bit.add bit j 1) add_at.(i);
      List.iter (fun j -> Bit.add bit j (-1)) rem_at.(i);
      match iv_f.(i) with
      | Some (lo, hi) when lo <= hi ->
        total := !total + Bit.range bit (max lo 0) (min hi (n - 1))
      | Some _ | None -> ()
    done;
    !total
  | OC.Product ->
    (* Cartesian enumeration over per-dimension candidate sets: each
       dimension is pre-filtered by its locally decidable conditions, so
       the enumeration walks only the (typically tiny) satisfying sets. *)
    let dims = comp.OC.comp_dims in
    let k = Array.length dims in
    let cands =
      Array.map
        (fun d ->
          let acc = ref [] in
          for i = n - 1 downto 0 do
            if OC.local_candidate t comp ~dim:d ~bufs i then acc := i :: !acc
          done;
          Array.of_list !acc)
        dims
    in
    evaluations := !evaluations + (k * n);
    if Array.exists (fun c -> Array.length c = 0) cands then 0
    else begin
      let c = ref 0 in
      let rec visit depth =
        if depth = k then begin
          incr evaluations;
          if OC.eval_component t comp ~bufs ~frame ~pins then incr c
        end
        else
          Array.iter
            (fun i ->
              frame.(dims.(depth)) <- i;
              visit (depth + 1))
            cands.(depth)
      in
      visit 0;
      !c
    end

let count_outcome_factorized conv t ~bufs ~n ~frame ~pins ~evaluations =
  if t.OC.unsatisfiable then 0
  else begin
    let f = OC.factorize conv t in
    let rec free_pow acc k = if k = 0 then acc else free_pow (acc * n) (k - 1) in
    let total = ref (free_pow 1 f.OC.free_dims) in
    Array.iter
      (fun sc ->
        if !total > 0 then
          total :=
            !total * count_component t sc ~bufs ~n ~frame ~pins ~evaluations)
      f.OC.components;
    !total
  end

let exhaustive_factorized (conv : Convert.t) ~outcomes ~run =
  let tl = Array.length conv.Convert.load_threads in
  let n = run.Perpetual.iterations in
  let total = frames_exhaustive ~tl ~iterations:n in
  let outcomes = Array.of_list outcomes in
  let counts = Array.make (Array.length outcomes) 0 in
  let evaluations = ref 0 in
  if tl > 0 then begin
    let bufs = run.Perpetual.bufs in
    let frame = Array.make tl 0 in
    let pins = Array.make (Array.length conv.Convert.t_reads) (-1) in
    Array.iteri
      (fun i o ->
        counts.(i) <-
          count_outcome_factorized conv o ~bufs ~n ~frame ~pins ~evaluations)
      outcomes
  end;
  { counts; frames_examined = total; evaluations = !evaluations }

(* --- Instrumented exports ------------------------------------------------- *)

(* Shadow each kernel with its observed form; the first-match dispatch
   below then reports whichever kernel it actually chose. *)
let exhaustive_reference conv ~outcomes ~run =
  observed "exhaustive_reference" (fun () ->
      exhaustive_reference conv ~outcomes ~run)

let exhaustive_independent_reference conv ~outcomes ~run =
  observed "exhaustive_independent_reference" (fun () ->
      exhaustive_independent_reference conv ~outcomes ~run)

let exhaustive_factorized conv ~outcomes ~run =
  observed "exhaustive_factorized" (fun () ->
      exhaustive_factorized conv ~outcomes ~run)

let heuristic conv ~outcomes ~run =
  observed "heuristic" (fun () -> heuristic conv ~outcomes ~run)

let heuristic_independent conv ~outcomes ~run =
  observed "heuristic_independent" (fun () ->
      heuristic_independent conv ~outcomes ~run)

let heuristic_auto conv ~outcomes ~run =
  let with_plans =
    List.map (fun o -> (o, Outcome_convert.heuristic_plan conv o)) outcomes
  in
  heuristic conv ~outcomes:with_plans ~run

(* --- First-match dispatch ------------------------------------------------- *)

module Ast = Perple_litmus.Ast

(* Factorized counting is per-outcome (independent); the first-match
   odometer counts each frame at most once.  The two agree whenever no
   frame can satisfy two outcomes, which we establish syntactically,
   pairwise: some register on which the outcomes expect different values
   must carry provably incompatible converted conditions.

   A frame fixes each register's loaded value [v].  Classifying each
   binding by the conversion it induces:

   - [Store c] (non-initial value, writing store has a frame variable):
     two such with distinct canonicals demand membership of disjoint
     arithmetic sequences — never both true;
   - [Store c] vs [Init]: the reads-from demands [v = k*i + c] with
     [i >= frame_m] while the from-read bound for that same store demands
     [v < k*frame_m + c] — never both true;
   - anything involving a {e pinned} (store-only) thread is excluded:
     a from-read bounded by a pin another register establishes can admit
     values a sibling outcome reads-from (older-than-the-pin members),
     so exclusivity there depends on pin agreement across the pair and
     is not decided locally.  Such sets fall back to the reference.

   Partial or mismatching register sets also fall back: soundness over
   speed. *)
type binding_class =
  | Init  (** Expects the initial value: from-read conditions. *)
  | Seq of int  (** Member of the sequence with this canonical. *)
  | Pinned  (** Involves a store-only thread: excluded from the proof. *)

let classify_binding (conv : Convert.t) (b : Outcome.binding) =
  match
    Ast.register_load conv.Convert.test ~thread:b.Outcome.thread
      ~reg:b.Outcome.reg
  with
  | None -> None
  | Some (_, x) ->
    if b.Outcome.value = Ast.initial_value conv.Convert.test x then begin
      (* Initial value: bounded below every store to [x]; a pin-bounded
         store makes the from-read pin-dependent. *)
      let pin_bounded =
        List.exists
          (fun (s : Convert.store) ->
            s.Convert.location = x
            && conv.Convert.frame_index.(s.Convert.thread) < 0)
          conv.Convert.stores
      in
      Some (if pin_bounded then Pinned else Init)
    end
    else
      match Convert.store_for_value conv ~location:x ~value:b.Outcome.value with
      | None -> None
      | Some s ->
        if conv.Convert.frame_index.(s.Convert.thread) < 0 then Some Pinned
        else Some (Seq s.Convert.canonical)

let classify_outcome conv (t : OC.t) =
  let rec go acc = function
    | [] -> Some (List.sort compare acc)
    | b :: rest -> (
      match classify_binding conv b with
      | None -> None
      | Some c ->
        go ((b.Outcome.thread, b.Outcome.reg, b.Outcome.value, c) :: acc) rest)
  in
  go [] t.OC.source

let exclusive_pair a b =
  List.length a = List.length b
  && List.for_all2
       (fun (t1, r1, _, _) (t2, r2, _, _) -> t1 = t2 && r1 = r2)
       a b
  && List.exists2
       (fun (_, _, va, ca) (_, _, vb, cb) ->
         va <> vb
         &&
         match (ca, cb) with
         | Seq c1, Seq c2 -> c1 <> c2
         | Seq _, Init | Init, Seq _ -> true
         | _ -> false)
       a b

let mutually_exclusive conv outcomes =
  match outcomes with
  | [] | [ _ ] -> true
  | _ -> (
    let rec classify acc = function
      | [] -> Some (List.rev acc)
      | o :: rest -> (
        match classify_outcome conv o with
        | None -> None
        | Some c -> classify (c :: acc) rest)
    in
    match classify [] outcomes with
    | None -> false
    | Some keys ->
      let rec pairs = function
        | [] -> true
        | k :: rest ->
          List.for_all (fun k' -> exclusive_pair k k') rest && pairs rest
      in
      pairs keys)

let exhaustive conv ~outcomes ~run =
  if mutually_exclusive conv outcomes then
    exhaustive_factorized conv ~outcomes ~run
  else exhaustive_reference conv ~outcomes ~run

let exhaustive_independent = exhaustive_factorized
