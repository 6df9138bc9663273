module Program = Perple_sim.Program
module Machine = Perple_sim.Machine
module Config = Perple_sim.Config

type run = {
  bufs : int array array;
  t_reads : int array;
  iterations : int;
  virtual_runtime : int;
  machine : Machine.stats;
}

let iteration_overhead = 1

let run ?(config = Config.default) ?on_sample ?on_event ?on_iteration_end
    ?watchdog ?(stress_threads = 0) ~rng ~image ~t_reads ~iterations () =
  let nthreads = Array.length image.Program.programs in
  if Array.length t_reads <> nthreads then
    invalid_arg "Perpetual.run: t_reads arity mismatch";
  let image = Stress.extend_image image ~threads:stress_threads in
  let bufs =
    Array.map (fun r -> Array.make (r * iterations) 0) t_reads
  in
  let stats =
    match (on_sample, on_event, on_iteration_end, watchdog) with
    | None, None, None, None
      when config.Config.faults = [] && not (Program.uses_persistency image) ->
      Machine.run_perpetual ~config ~rng ~image ~iterations ~t_reads ~bufs
    | _ ->
      Machine.run ~config ~rng ~image ~iterations ~barrier:Machine.No_barrier
        ?on_sample ?on_event ?watchdog
        ~on_iteration_end:(fun ~thread ~iteration ~regs ->
          if thread < nthreads then begin
            let r = t_reads.(thread) in
            if r > 0 then begin
              let base = r * iteration in
              for i = 0 to r - 1 do
                bufs.(thread).(base + i) <- regs.(i)
              done
            end
          end;
          match on_iteration_end with
          | Some hook -> hook ~thread ~iteration ~regs
          | None -> ())
        ()
  in
  {
    bufs;
    t_reads;
    iterations;
    virtual_runtime =
      stats.Machine.rounds + (iteration_overhead * iterations);
    machine = stats;
  }

let retired run =
  let n = ref run.iterations in
  Array.iteri
    (fun t r ->
      if t < Array.length run.t_reads then
        n := min !n r)
    run.machine.Machine.iterations_retired;
  !n

let truncate run ~iterations =
  if iterations > run.iterations then
    invalid_arg "Perpetual.truncate: cannot extend a run";
  if iterations = run.iterations then run
  else
    {
      run with
      iterations;
      bufs =
        Array.map2
          (fun buf r -> Array.sub buf 0 (r * iterations))
          run.bufs run.t_reads;
    }

let empty ~t_reads ~virtual_runtime ~termination =
  {
    bufs = Array.map (fun _ -> [||]) t_reads;
    t_reads;
    iterations = 0;
    virtual_runtime;
    machine =
      {
        Machine.rounds = virtual_runtime;
        instructions = 0;
        drains = 0;
        barriers = 0;
        stalls = 0;
        termination;
        iterations_retired = Array.map (fun _ -> 0) t_reads;
        lost_stores = 0;
        persisted = None;
      };
  }
