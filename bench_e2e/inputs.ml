(* Workload inputs derived from --seed, and the in-process reference every
   output of the system under test is checked against. *)

module Engine = Perple_core.Engine
module Ledger = Perple_core.Ledger
module Config = Perple_sim.Config

type campaign = { test : string; iterations : int; runs : int; seed : int }

type workload = Cli | Daemon | Fleet | Verify

let workloads =
  [ ("cli-campaign", Cli); ("daemon", Daemon); ("fleet-campaign", Fleet);
    ("verify-trace", Verify) ]

let name_of w = fst (List.find (fun (_, v) -> v = w) workloads)

(* Operation counts per run: [fresh] small campaigns, a replay of a
   completed one after every fourth, [rounds] of the workload's bulk mix,
   [cold_starts] spawns timed for setup_s and [calibrations] of the
   host's speed, all interleaved.  The counts are fixed for a given
   --seconds, so both sides of a comparison do the same work; they are
   sized so that a run measures about [nominal_seconds] on a 2-core host,
   with as many fresh campaigns as the workload's fresh-submit latency
   allows, since their p95 needs the most samples.  --smoke divides counts
   and iterations by 20. *)
type plan = {
  fresh : int;
  rounds : int;
  cold_starts : int;
  calibrations : int;
  shrink : int;
}

let nominal_seconds = 25

let plan ~smoke ~seconds w =
  let fresh, rounds =
    match w with Cli -> (500, 30) | Daemon -> (300, 3) | Fleet -> (500, 32) | Verify -> (400, 16)
  in
  let scaled n = max 1 (((n * seconds) + (nominal_seconds / 2)) / nominal_seconds) in
  if smoke then { fresh = 12; rounds = 1; cold_starts = 2; calibrations = 4; shrink = 20 }
  else
    { fresh = max 4 (scaled fresh); rounds = scaled rounds; cold_starts = 60;
      calibrations = scaled 60; shrink = 1 }

(* Small and bulk inputs.  Ten distinct small campaigns are cycled under
   fresh ids, so the reference stays cheap while every submit executes. *)
let distinct_small = 10

let derive seed tag k = Hashtbl.hash (seed, tag, k)

let small ~seed k =
  { test = "sb"; iterations = 2000; runs = 4; seed = derive seed "small" (k mod distinct_small) }

(* The bulk mix M: machine- and counting-bound campaigns of three shapes
   (two-thread sb, four-thread iriw, fenced podwr001). *)
let mix ~seed ~shrink =
  List.mapi
    (fun i (test, iterations) ->
      { test; iterations = iterations / shrink; runs = 16; seed = derive seed "bulk" i })
    [ ("sb", 100_000); ("iriw", 50_000); ("podwr001", 50_000) ]

(* Whole-trace verification is single-run only: one campaign of one run per
   test, each certified by the solver.  Unlike the other mixes, each round
   draws fresh seeds: the verifier's peak memory depends on the input
   (sb's is 108 or 119 MB by seed), and a peak over every round's inputs
   is steadier than one over three. *)
let verify_mix ~seed ~shrink ~round =
  List.mapi
    (fun i (test, iterations) ->
      { test; iterations = iterations / shrink; runs = 1; seed = derive seed "verify" (i, round) })
    [ ("sb", 50_000); ("mp", 50_000); ("iriw", 25_000) ]

let verify_small ~seed k = { (small ~seed k) with runs = 1 }

let test_of c = Perple_litmus.Catalog.find_exn c.test

let config = Config.with_model Config.Tso Config.default

(* One campaign exactly as `perple run --runs R` and the daemon execute it,
   computed in this process at jobs 1. *)
let reference c =
  let out = Array.make c.runs None in
  match
    Engine.campaign_entries ~config ~counter:Engine.Heuristic ~jobs:1
      ~on_entry:(fun e -> out.(e.Engine.run_index) <- Some (Ledger.of_entry e))
      ~runs:c.runs ~seed:c.seed ~iterations:c.iterations (test_of c)
  with
  | Error r -> failwith (Format.asprintf "reference %s: %a" c.test Perple_core.Convert.pp_reason r)
  | Ok _ -> Array.map Option.get out

(* A single run as `perple run T` executes it: (iterations, target). *)
let reference_single c =
  match Engine.run ~config ~seed:c.seed ~iterations:c.iterations (test_of c) with
  | Error r -> failwith (Format.asprintf "reference %s: %a" c.test Perple_core.Convert.pp_reason r)
  | Ok report -> (report.Engine.run.Perple_harness.Perpetual.iterations, Engine.target_count report)
