type classification = Allowed | Forbidden

type entry = { test : Ast.t; classification : classification }

(* Terse builders for the definitions below. *)
let w x a = Ast.Store (x, a)
let r i x = Ast.Load (i, x)
let f = Ast.Mfence
let reg t i v = Ast.Reg_eq (t, i, v)
let loc x v = Ast.Loc_eq (x, v)
let exists atoms = { Ast.quantifier = Ast.Exists; atoms }

let def ?doc name threads atoms classification =
  {
    test = Ast.make ?doc ~name ~threads ~condition:(exists atoms) ();
    classification;
  }

(* --- Allowed group (target outcome observable under x86-TSO) ----------- *)

(* The store-forwarding example shared by the AMD manual (amd3) and the
   Intel white paper (iwp2.3.b): each thread reads its own store early and
   the other thread's store late. *)
let forwarding_threads =
  [
    [ w "x" 1; r 0 "x"; r 1 "y" ];
    [ w "y" 1; r 0 "y"; r 1 "x" ];
  ]

let forwarding_target =
  [ reg 0 0 1; reg 0 1 0; reg 1 0 1; reg 1 1 0 ]

let amd3 =
  def "amd3" ~doc:"AMD manual: intra-processor forwarding"
    forwarding_threads forwarding_target Allowed

let iwp23b =
  def "iwp23b" ~doc:"Intel WP example 2.3.b (same body as amd3)"
    forwarding_threads forwarding_target Allowed

let iwp24 =
  def "iwp24" ~doc:"Intel WP example 2.4: forwarding, outer loads only"
    forwarding_threads
    [ reg 0 1 0; reg 1 1 0 ]
    Allowed

let n1 =
  def "n1" ~doc:"three-thread store buffering with a witness location"
    [
      [ w "z" 1 ];
      [ w "x" 1; r 0 "y"; r 1 "z" ];
      [ w "y" 1; r 0 "x" ];
    ]
    [ reg 1 0 0; reg 1 1 1; reg 2 0 0 ]
    Allowed

let podwr000 =
  def "podwr000" ~doc:"write-then-read, both reads stale (sb shape)"
    [ [ w "x" 2; r 0 "y" ]; [ w "y" 2; r 0 "x" ] ]
    [ reg 0 0 0; reg 1 0 0 ]
    Allowed

let podwr001 =
  def "podwr001" ~doc:"paper Fig 2: sb extended to three threads"
    [
      [ w "x" 1; r 0 "y" ];
      [ w "y" 1; r 0 "z" ];
      [ w "z" 1; r 0 "x" ];
    ]
    [ reg 0 0 0; reg 1 0 0; reg 2 0 0 ]
    Allowed

let rfi009 =
  def "rfi009" ~doc:"asymmetric store forwarding"
    [ [ w "x" 1; r 0 "x"; r 1 "y" ]; [ w "y" 1; r 0 "x" ] ]
    [ reg 0 0 1; reg 0 1 0; reg 1 0 0 ]
    Allowed

let rfi013 =
  def "rfi013" ~doc:"sb with a trailing second store to x (k_x = 2)"
    [ [ w "x" 1; r 0 "y" ]; [ w "y" 1; r 0 "x"; w "x" 2 ] ]
    [ reg 0 0 0; reg 1 0 0 ]
    Allowed

let rfi015 =
  def "rfi015" ~doc:"store forwarding plus a third-thread witness"
    [
      [ w "z" 1 ];
      [ w "x" 1; r 0 "x"; r 1 "y" ];
      [ w "y" 1; r 0 "y"; r 1 "x"; r 2 "z" ];
    ]
    [ reg 1 0 1; reg 1 1 0; reg 2 0 1; reg 2 1 0; reg 2 2 1 ]
    Allowed

let rfi017 =
  def "rfi017" ~doc:"store forwarding with non-unit constants"
    [ [ w "x" 1; r 0 "x"; r 1 "y" ]; [ w "y" 2; r 0 "y"; r 1 "x" ] ]
    [ reg 0 0 1; reg 0 1 0; reg 1 0 2; reg 1 1 0 ]
    Allowed

let rwc_unfenced =
  def "rwc-unfenced" ~doc:"read-to-write causality, no fence"
    [
      [ w "x" 1 ];
      [ r 0 "x"; r 1 "y" ];
      [ w "y" 1; r 0 "x" ];
    ]
    [ reg 1 0 1; reg 1 1 0; reg 2 0 0 ]
    Allowed

let sb =
  def "sb" ~doc:"paper Fig 2: store buffering"
    [ [ w "x" 1; r 0 "y" ]; [ w "y" 1; r 0 "x" ] ]
    [ reg 0 0 0; reg 1 0 0 ]
    Allowed

(* --- Forbidden group (target outcome must not appear under x86-TSO) ---- *)

let amd10 =
  def "amd10" ~doc:"fenced sb with a forwarded witness load"
    [
      [ w "x" 1; f; r 0 "y"; r 1 "x" ];
      [ w "y" 1; f; r 0 "x" ];
    ]
    [ reg 0 0 0; reg 0 1 1; reg 1 0 0 ]
    Forbidden

let amd5 =
  def "amd5" ~doc:"AMD manual: sb with mfences"
    [ [ w "x" 1; f; r 0 "y" ]; [ w "y" 1; f; r 0 "x" ] ]
    [ reg 0 0 0; reg 1 0 0 ]
    Forbidden

let amd5_staleld =
  def "amd5+staleld" ~doc:"fenced sb where a re-read would go stale"
    [ [ w "x" 1; f; r 0 "y" ]; [ w "y" 1; f; r 0 "x"; r 1 "x" ] ]
    [ reg 1 0 1; reg 1 1 0 ]
    Forbidden

let co_iriw =
  def "co-iriw" ~doc:"two readers disagree on the coherence order of x"
    [
      [ w "x" 1 ];
      [ w "x" 2 ];
      [ r 0 "x"; r 1 "x" ];
      [ r 0 "x"; r 1 "x" ];
    ]
    [ reg 2 0 1; reg 2 1 2; reg 3 0 2; reg 3 1 1 ]
    Forbidden

let iriw =
  def "iriw" ~doc:"independent reads of independent writes"
    [
      [ w "x" 1 ];
      [ w "y" 1 ];
      [ r 0 "x"; r 1 "y" ];
      [ r 0 "y"; r 1 "x" ];
    ]
    [ reg 2 0 1; reg 2 1 0; reg 3 0 1; reg 3 1 0 ]
    Forbidden

let lb =
  def "lb" ~doc:"paper Fig 2: load buffering"
    [ [ r 0 "y"; w "x" 1 ]; [ r 0 "x"; w "y" 1 ] ]
    [ reg 0 0 1; reg 1 0 1 ]
    Forbidden

let mp =
  def "mp" ~doc:"message passing"
    [ [ w "x" 1; w "y" 1 ]; [ r 0 "y"; r 1 "x" ] ]
    [ reg 1 0 1; reg 1 1 0 ]
    Forbidden

let mp_staleld =
  def "mp+staleld" ~doc:"message passing with a stale re-read of y"
    [ [ w "x" 1; w "y" 1 ]; [ r 0 "y"; r 1 "y" ] ]
    [ reg 1 0 1; reg 1 1 0 ]
    Forbidden

let mp_fences =
  def "mp+fences" ~doc:"message passing with mfences"
    [ [ w "x" 1; f; w "y" 1 ]; [ r 0 "y"; f; r 1 "x" ] ]
    [ reg 1 0 1; reg 1 1 0 ]
    Forbidden

let n4 =
  def "n4" ~doc:"x86-TSO paper n4: loads reading later stores to x"
    [ [ r 0 "x"; w "x" 1 ]; [ r 0 "x"; w "x" 2 ] ]
    [ reg 0 0 2; reg 1 0 1 ]
    Forbidden

let n5 =
  def "n5" ~doc:"x86-TSO paper n5: incompatible coherence views of x"
    [ [ w "x" 1; r 0 "x" ]; [ w "x" 2; r 0 "x" ] ]
    [ reg 0 0 2; reg 1 0 1 ]
    Forbidden

let rwc_fenced =
  def "rwc-fenced" ~doc:"read-to-write causality with mfence"
    [
      [ w "x" 1 ];
      [ r 0 "x"; r 1 "y" ];
      [ w "y" 1; f; r 0 "x" ];
    ]
    [ reg 1 0 1; reg 1 1 0; reg 2 0 0 ]
    Forbidden

let safe006 =
  def "safe006" ~doc:"load buffering with a one-sided fence"
    [ [ r 0 "y"; w "x" 1 ]; [ r 0 "x"; f; w "y" 1 ] ]
    [ reg 0 0 1; reg 1 0 1 ]
    Forbidden

let safe007 =
  def "safe007" ~doc:"three-thread load-buffering ring (T_L = 3)"
    [
      [ r 0 "z"; w "x" 1 ];
      [ r 0 "x"; w "y" 1 ];
      [ r 0 "y"; w "z" 1 ];
    ]
    [ reg 0 0 1; reg 1 0 1; reg 2 0 1 ]
    Forbidden

let safe012 =
  def "safe012" ~doc:"write-to-read causality chain with fences"
    [
      [ w "x" 1 ];
      [ r 0 "x"; f; w "y" 1 ];
      [ r 0 "y"; f; r 1 "x" ];
    ]
    [ reg 1 0 1; reg 2 0 1; reg 2 1 0 ]
    Forbidden

let safe018 =
  def "safe018" ~doc:"message passing observed by two readers"
    [
      [ w "x" 1; w "y" 1 ];
      [ r 0 "y"; r 1 "x" ];
      [ r 0 "x"; r 1 "y" ];
    ]
    [ reg 1 0 1; reg 1 1 0; reg 2 0 0 ]
    Forbidden

let safe022 =
  def "safe022" ~doc:"message passing with a fenced writer"
    [ [ w "x" 1; f; w "y" 1 ]; [ r 0 "y"; r 1 "x" ] ]
    [ reg 1 0 1; reg 1 1 0 ]
    Forbidden

let safe024 =
  def "safe024" ~doc:"fenced sb plus a third-thread witness store"
    [
      [ w "x" 1; f; r 0 "y"; r 1 "z" ];
      [ w "y" 1; f; r 0 "x" ];
      [ w "z" 1 ];
    ]
    [ reg 0 0 0; reg 0 1 1; reg 1 0 0 ]
    Forbidden

let safe027 =
  def "safe027" ~doc:"iriw with fenced readers"
    [
      [ w "x" 1 ];
      [ w "y" 1 ];
      [ r 0 "x"; f; r 1 "y" ];
      [ r 0 "y"; f; r 1 "x" ];
    ]
    [ reg 2 0 1; reg 2 1 0; reg 3 0 1; reg 3 1 0 ]
    Forbidden

let safe028 =
  def "safe028" ~doc:"fenced read-to-write causality with a readback"
    [
      [ w "x" 1 ];
      [ r 0 "x"; r 1 "y" ];
      [ w "y" 1; f; r 0 "x"; r 1 "y" ];
    ]
    [ reg 1 0 1; reg 1 1 0; reg 2 0 0; reg 2 1 1 ]
    Forbidden

let safe036 =
  def "safe036" ~doc:"fenced sb, roles swapped"
    [ [ w "y" 1; f; r 0 "x" ]; [ w "x" 1; f; r 0 "y" ] ]
    [ reg 0 0 0; reg 1 0 0 ]
    Forbidden

let wrc =
  def "wrc" ~doc:"write-to-read causality"
    [
      [ w "x" 1 ];
      [ r 0 "x"; w "y" 1 ];
      [ r 0 "y"; r 1 "x" ];
    ]
    [ reg 1 0 1; reg 2 0 1; reg 2 1 0 ]
    Forbidden

let suite =
  [
    (* Allowed group, Table II order. *)
    amd3;
    iwp23b;
    iwp24;
    n1;
    podwr000;
    podwr001;
    rfi009;
    rfi013;
    rfi015;
    rfi017;
    rwc_unfenced;
    sb;
    (* Forbidden group, Table II order. *)
    amd10;
    amd5;
    amd5_staleld;
    co_iriw;
    iriw;
    lb;
    mp;
    mp_staleld;
    mp_fences;
    n4;
    n5;
    rwc_fenced;
    safe006;
    safe007;
    safe012;
    safe018;
    safe022;
    safe024;
    safe027;
    safe028;
    safe036;
    wrc;
  ]

let allowed = List.filter (fun e -> e.classification = Allowed) suite
let forbidden = List.filter (fun e -> e.classification = Forbidden) suite

(* --- Non-convertible companions (paper, Sec V-C) ------------------------ *)

let nc name ?doc threads atoms =
  Ast.make ?doc ~name ~threads ~condition:(exists atoms) ()

let two_plus_two_w =
  nc "2+2w" ~doc:"write races decided by final memory"
    [ [ w "x" 1; w "y" 2 ]; [ w "y" 1; w "x" 2 ] ]
    [ loc "x" 1; loc "y" 1 ]

let s_test =
  nc "s" ~doc:"store race with a message-passing read"
    [ [ w "x" 2; w "y" 1 ]; [ r 0 "y"; w "x" 1 ] ]
    [ reg 1 0 1; loc "x" 2 ]

let r_test =
  nc "r" ~doc:"store race against a buffered reader"
    [ [ w "x" 1; w "y" 1 ]; [ w "y" 2; r 0 "x" ] ]
    [ reg 1 0 0; loc "y" 2 ]

let coww =
  nc "coww" ~doc:"coherence of same-thread writes, final memory"
    [ [ w "x" 1; w "x" 2 ]; [ r 0 "x" ] ]
    [ loc "x" 1 ]

let w_plus_rw =
  nc "w+rw" ~doc:"read then overwrite, final memory"
    [ [ w "x" 2 ]; [ r 0 "x"; w "x" 1 ] ]
    [ reg 1 0 2; loc "x" 2 ]

let non_convertible = [ two_plus_two_w; s_test; r_test; coww; w_plus_rw ]

(* --- The 88-test campaign model (Sec VII-G) ----------------------------- *)

(* The paper's remaining 54 tests are real litmus tests whose target
   outcomes require inspecting shared memory (write-serialisation
   witnesses).  We build them with the diy-style generator: every cycle
   below contains a Wse edge, so its canonical witness pins a final memory
   value and the Converter rightly refuses it (Sec V-C). *)
let non_convertible_cycles =
  (* Deterministic catalogue of Wse-bearing cycles; generated names are
     w000, w001, ... in order. *)
  let pos = [ "PodWW"; "PodWR"; "PodRW"; "PodRR"; "MFencedWW"; "MFencedWR" ] in
  let base =
    [
      "PodWW Wse PodWW Wse";
      "PodWR Fre PodWW Wse";
      "PodWW Wse PodWR Fre";
      "PodWW Rfe PodRW Wse";
      "PodRW Wse PodRW Rfe";
      "PodWW Wse PodWW Wse PodWW Wse";
      "MFencedWW Wse MFencedWW Wse";
      "PodWR Fre PodWR Fre PodWW Wse";
      "PodWW Rfe PodRR Fre PodWW Wse";
      "Wse Wse";
      "Wse PodWW Wse PodWW";
      "Rfe PodRW Wse PodWW";
    ]
  in
  let more =
    (* Two-segment cycles <po1> Wse <po2> Wse over assorted po flavours
       whose endpoints chain as W...W. *)
    List.concat_map
      (fun a ->
        List.filter_map
          (fun b ->
            let ends_w e =
              String.length e >= 1 && e.[String.length e - 1] = 'W'
            in
            if
              ends_w a && ends_w b
              && a.[String.length a - 2] <> 'R'
              && b.[String.length b - 2] <> 'R'
            then Some (Printf.sprintf "%s Wse %s Wse" a b)
            else None)
          pos)
      pos
  in
  base @ more

let generated_non_convertible () =
  let count = ref 0 in
  List.filter_map
    (fun cycle_text ->
      match Generate.parse_cycle cycle_text with
      | Error _ -> None
      | Ok cycle -> (
        let name = Printf.sprintf "w%03d" !count in
        match Generate.of_cycle ~name cycle with
        | Error _ -> None
        | Ok test ->
          (* Only keep genuinely non-convertible results. *)
          let has_memory_atom =
            List.exists
              (function Ast.Loc_eq _ -> true | Ast.Reg_eq _ -> false)
              test.Ast.condition.atoms
          in
          if has_memory_atom then begin
            incr count;
            Some test
          end
          else None))
    non_convertible_cycles

(* Fallback variant construction, only used if the generated pool falls
   short of the 54 the campaign model needs. *)
let memory_variant suffix entry =
  let test = entry.test in
  let locs = Ast.locations test in
  match locs with
  | [] -> None
  | x :: _ ->
    let pinned =
      match Ast.store_constants test x with a :: _ -> a | [] -> 0
    in
    let condition =
      exists (test.Ast.condition.atoms @ [ loc x pinned ])
    in
    Some
      (Ast.make ~doc:test.Ast.doc
         ~name:(test.Ast.name ^ suffix)
         ~init:test.Ast.init
         ~threads:
           (Array.to_list (Array.map Array.to_list test.Ast.threads))
         ~condition ())

let build_extended_88 () =
  let convertible = List.map (fun e -> (e.test, true)) suite in
  let named = List.map (fun t -> (t, false)) non_convertible in
  let generated =
    List.map (fun t -> (t, false)) (generated_non_convertible ())
  in
  let pool = convertible @ named @ generated in
  let need = 88 - List.length pool in
  let padding =
    List.filteri (fun i _ -> i < need)
      (List.filter_map
         (fun e ->
           Option.map (fun t -> (t, false)) (memory_variant "+mem" e))
         suite
      @ List.filter_map
          (fun e ->
            Option.map (fun t -> (t, false)) (memory_variant "+mem2" e))
          suite)
  in
  List.filteri (fun i _ -> i < 88) (pool @ padding)

(* Built on first use and memoised: running the generator at module
   initialisation would charge every process, [perple --version]
   included. *)
let extended_88 =
  let memo = lazy (build_extended_88 ()) in
  fun () -> Lazy.force memo

(* --- Persistent-memory suite ------------------------------------------- *)

type pm_entry = { pm_test : Ast.t; holds_epoch : bool; holds_eager : bool }

let fl x = Ast.Flush x
let d = Ast.Drain

let pm_def ?doc name threads ~assumes ~requires ~holds_epoch ~holds_eager =
  {
    pm_test =
      Ast.make ?doc ~name ~threads ~condition:(exists [])
        ~post_crash:{ Ast.assumes; requires } ();
    holds_epoch;
    holds_eager;
  }

let pm_suite =
  [
    (* The canonical epoch-ordering shape: each store is flushed and
       drained before the next epoch begins, so the second store can never
       persist without the first.  The eager bug lets the younger flush
       overtake the older one. *)
    pm_def "pm-epoch-order"
      ~doc:"x persists before y: each epoch is drained before the next"
      [ [ w "x" 1; fl "x"; d; w "y" 1; fl "y"; d ] ]
      ~assumes:[ ("y", 1) ] ~requires:[ ("x", 1) ] ~holds_epoch:true
      ~holds_eager:false;
    (* Same discipline but the last flush is never drained: correct epoch
       ordering still protects it (it can only persist after the earlier
       drained epoch), while the eager bug does not. *)
    pm_def "pm-flush-before-fence"
      ~doc:"trailing undrained flush; earlier epoch already durable"
      [ [ w "x" 1; fl "x"; d; w "y" 1; fl "y" ] ]
      ~assumes:[ ("y", 1) ] ~requires:[ ("x", 1) ] ~holds_epoch:true
      ~holds_eager:false;
    (* A programming bug on any model: both flushes share one epoch, so a
       crash between them (or before the drain) can persist the pair torn. *)
    pm_def "pm-torn-pair"
      ~doc:"two flushes in one epoch: the pair can persist torn"
      [ [ w "x" 1; w "y" 1; fl "x"; fl "y"; d ] ]
      ~assumes:[ ("x", 1) ] ~requires:[ ("y", 1) ] ~holds_epoch:false
      ~holds_eager:false;
    (* A store alone is never durable: without a flush the persistence
       domain keeps the initial value under both models. *)
    pm_def "pm-unflushed"
      ~doc:"store without flush never persists"
      [ [ w "x" 1; d ] ]
      ~assumes:[] ~requires:[ ("x", 0) ] ~holds_epoch:true ~holds_eager:true;
    (* Epoch ordering across threads, under the crash-suite's canonical
       sequential schedule (thread 0 runs to completion before thread 1):
       y only flushes after thread 0's drain has committed x. *)
    pm_def "pm-2t-epoch-order"
      ~doc:"two threads, one epoch each; canonical schedule orders them"
      [ [ w "x" 1; fl "x"; d ]; [ w "y" 1; fl "y"; d ] ]
      ~assumes:[ ("y", 1) ] ~requires:[ ("x", 1) ] ~holds_epoch:true
      ~holds_eager:false;
  ]

let by_name =
  let table = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace table e.test.Ast.name e) suite;
  List.iter
    (fun t ->
      Hashtbl.replace table t.Ast.name { test = t; classification = Forbidden })
    non_convertible;
  List.iter
    (fun e ->
      (* The volatile condition of a PM test is the trivial [exists ()]. *)
      Hashtbl.replace table e.pm_test.Ast.name
        { test = e.pm_test; classification = Allowed })
    pm_suite;
  table

let find name = Hashtbl.find_opt by_name name

let find_exn name =
  match find name with Some e -> e.test | None -> raise Not_found

let all_names =
  List.map (fun e -> e.test.Ast.name) suite
  @ List.map (fun t -> t.Ast.name) non_convertible
  @ List.map (fun e -> e.pm_test.Ast.name) pm_suite

let find_pm name =
  List.find_opt (fun e -> e.pm_test.Ast.name = name) pm_suite

let sb = sb.test
let lb = lb.test
let podwr001 = podwr001.test
let mp = mp.test
