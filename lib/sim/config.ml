type model = Sc | Tso | Pso | Tso_store_reorder | Tso_fence_ignored

type persistency = Epoch | Eager

type t = {
  model : model;
  persistency : persistency;
  progress_chance : float;
  drain_chance : float;
  buffer_capacity : int;
  jitter_chance : float;
  jitter_mean : int;
  faults : Fault.profile;
}

let default =
  {
    model = Tso;
    persistency = Epoch;
    progress_chance = 0.9;
    drain_chance = 0.55;
    buffer_capacity = 8;
    jitter_chance = 0.002;
    jitter_mean = 400;
    faults = Fault.none;
  }

let model_name = function
  | Sc -> "sc"
  | Tso -> "tso"
  | Pso -> "pso"
  | Tso_store_reorder -> "tso+store-reorder-bug"
  | Tso_fence_ignored -> "tso+fence-ignored-bug"

let model_of_name s =
  List.find_opt
    (fun m -> model_name m = s)
    [ Sc; Tso; Pso; Tso_store_reorder; Tso_fence_ignored ]

let persistency_name = function Epoch -> "epoch" | Eager -> "eager-bug"

let persistency_of_name = function
  | "epoch" -> Some Epoch
  | "eager-bug" | "eager" -> Some Eager
  | _ -> None

let with_model model t = { t with model }

let with_persistency persistency t = { t with persistency }

let no_jitter t = { t with jitter_chance = 0.0 }

let with_faults faults t = { t with faults }
