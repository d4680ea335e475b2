(* The benchmark's worker. [run.py] starts one process per pass (or per
   serve-warm segment), so every pass pays a fresh process like a user's
   [cdsspec_run] invocation does, and no state carries across passes.

     bench.exe calib
     bench.exe pass WORKLOAD --seed N --trace 0|1 [--spans FILE]
     bench.exe pass WORKLOAD --setup-only
     bench.exe serve --socket S --store DIR --seed N --seconds T --trace 0|1 [--spans FILE]

   WORKLOAD is registry, inject, fuzz-oversized, or registry-fuzz: the
   registry jobs and then the fuzz-oversized jobs, in one process.

   A pass prints "ready" once it can start its first job, then one JSON
   line with per-job verdicts, times and work counts. With --setup-only
   it exits right after "ready", which times process set-up alone.
   Traced passes call each layer's public entry points from here, wrapped
   in spans; untraced passes call the same entry points the shipped CLI
   calls. *)

module J = Analyze.Json
module B = Structures.Benchmark
module E = Mc.Explorer
module Ords = Structures.Ords

let now = Mc.Monotonic.now

(* ------------------------------------------------------------------ *)
(* Spans: kept in memory, written once when the pass ends. *)

type span = {
  id : int;
  name : string;
  job : int;
  parent : int;  (* -1 for a job's root span *)
  t0 : float;
  mutable t1 : float;
}

let spans = ref []
let span_count = ref 0

let open_span ~name ~job ~parent =
  let s = { id = !span_count; name; job; parent; t0 = now (); t1 = nan } in
  incr span_count;
  spans := s :: !spans;
  s

let close_span s = s.t1 <- now ()

let span_total name =
  List.fold_left (fun acc s -> if s.name = name then acc +. (s.t1 -. s.t0) else acc) 0. !spans

let span_calls name = List.length (List.filter (fun s -> s.name = name) !spans)

(* Total time of the [name] spans whose parent is a [parent] span. *)
let child_total name ~parent =
  let names = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace names s.id s.name) !spans;
  List.fold_left
    (fun acc s ->
      if s.name = name && Hashtbl.find_opt names s.parent = Some parent then acc +. (s.t1 -. s.t0)
      else acc)
    0. !spans

let write_spans path =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (J.to_line
           (J.Obj
              [
                ("id", J.Int s.id);
                ("name", J.Str s.name);
                ("job", J.Int s.job);
                ("parent", if s.parent < 0 then J.Null else J.Int s.parent);
                ("start", J.Float s.t0);
                ("end", J.Float s.t1);
              ]));
      output_char oc '\n')
    (List.rev !spans);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Process facts *)

let vm_hwm_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

let gc_fields (g0 : Gc.stat) (g1 : Gc.stat) =
  [
    ("minor_words", J.Float (g1.minor_words -. g0.minor_words));
    ("major_words", J.Float (g1.major_words -. g0.major_words));
    ("major_collections", J.Int (g1.major_collections - g0.major_collections));
  ]

(* ------------------------------------------------------------------ *)
(* Shipped settings *)

(* [cdsspec_run check]: 500k cap, serial, pruning, checker + check cache,
   arena engine. *)
let check_cap = 500_000

(* [cdsspec_run inject] / [Harness.Experiments.default_limits]. *)
let inject_cap = 150_000

(* fuzz-oversized: one job is one seeded campaign over the whole
   oversized suite, [fuzz_execs] executions per test; a pass runs
   [fuzz_seeds] such jobs, 300 executions per test in all. Every job
   covers every test, so job times do not split into per-test clusters
   and their percentiles average over seeds. *)
let fuzz_seeds = 20
let fuzz_execs = 15
let checker = Cdsspec.Checker.default_config

let explore_config (b : B.t) cap =
  { E.default_config with scheduler = b.scheduler; max_executions = Some cap; prune = true }

(* [Store.explore_checked]'s store-less path with the checker hook
   wrapped in spans: the same exploration, timed per layer. *)
let explore_traced ~job ~parent ~cap (b : B.t) ~ords (t : B.test) =
  let cache = Cdsspec.Checker.create_cache ~memoize:true () in
  let hook = Cdsspec.Checker.hook ~config:checker ~cache b.spec in
  let sp = open_span ~name:"mc.explore" ~job ~parent in
  let on_feasible exec annots =
    let c = open_span ~name:"core.checker" ~job ~parent:sp.id in
    let v = hook exec annots in
    close_span c;
    v
  in
  let r =
    E.explore ~config:(explore_config b cap) ~on_feasible
      ~check:(fun () -> Cdsspec.Checker.cache_counters cache)
      (t.program ords)
  in
  close_span sp;
  r

let stats_fields (s : E.stats) =
  [
    ("explored", J.Int s.explored);
    ("feasible", J.Int s.feasible);
    ("graphs", J.Int s.distinct_graphs);
    ("truncated", J.Bool s.truncated);
    ("commits", J.Int s.commits);
    ("restores", J.Int s.restores);
    ("snapshots", J.Int s.snapshots);
    ("fiber_switches", J.Int s.fiber_switches);
    ("inline_ops", J.Int s.inline_ops);
    ("rf_queries", J.Int s.rf_queries);
    ("rf_fast", J.Int s.rf_fast);
    ("rf_rejected", J.Int s.rf_rejected);
    ("pruned_equiv", J.Int s.pruned_equiv);
    ("pruned_sleep_set", J.Int s.pruned_sleep_set);
    ("pruned_loop_bound", J.Int s.pruned_loop_bound);
    ("cache_hits", J.Int s.check.cache_hits);
    ("cache_misses", J.Int s.check.cache_misses);
    ("histories_truncated", J.Int s.check.histories_truncated);
  ]

let bug_keys bugs = J.List (List.map (fun b -> J.Str (Mc.Bug.key b)) bugs)

let spec_violations bugs =
  List.length (List.filter (function Mc.Bug.Spec_violation _ -> true | _ -> false) bugs)

(* ------------------------------------------------------------------ *)
(* registry: every exhaustive unit test at its published orders *)

let registry_jobs () =
  List.concat_map (fun (b : B.t) -> List.map (fun t -> (b, t)) b.tests) Structures.Registry.exhaustive

let run_registry ~traced =
  List.mapi
    (fun job ((b : B.t), (t : B.test)) ->
      let ords = Ords.default b.sites in
      let t0 = now () in
      let r =
        if traced then begin
          let root = open_span ~name:"job" ~job ~parent:(-1) in
          let r = explore_traced ~job ~parent:root.id ~cap:check_cap b ~ords t in
          close_span root;
          r
        end
        else
          fst
            (Store.explore_checked ~checker ~use_cache:true ~max_execs:(Some check_cap) ~jobs:1
               ~prune:true ~engine:`Arena b ~ords t)
      in
      let ms = (now () -. t0) *. 1000. in
      J.Obj
        ([
           ("job", J.Str (b.name ^ "/" ^ t.test_name));
           ("ms", J.Float ms);
           ("bugs", bug_keys r.bugs);
           ("violations", J.Int (spec_violations r.bugs));
           ("explorations", J.Int 1);
           ("decided", J.Int (if r.stats.truncated then 0 else 1));
         ]
        @ stats_fields r.stats))
    (registry_jobs ())

(* ------------------------------------------------------------------ *)
(* inject: the Fig. 8 campaign — every single-site weakening, stopping at
   the first detecting unit test, classified in the paper's priority
   order (built-in > admissibility > assertion), as
   [Harness.Experiments.figure8] does. *)

let classify bugs =
  let is_builtin = function
    | Mc.Bug.Data_race _ | Uninitialized_load _ | Deadlock _ | Assertion_failure _ -> true
    | Spec_violation _ -> false
  in
  let spec_kind k =
    List.exists (function Mc.Bug.Spec_violation { kind; _ } -> kind = k | _ -> false) bugs
  in
  if bugs = [] then "missed"
  else if List.exists is_builtin bugs then "builtin"
  else if spec_kind "admissibility" then "admissibility"
  else "assertion"

(* Sum of the integer stats over an injection's explorations. *)
let sum_stats (rs : E.result list) =
  let sum f = List.fold_left (fun acc (r : E.result) -> acc + f r.stats) 0 rs in
  let s : E.stats = (List.hd rs).stats in
  {
    s with
    explored = sum (fun s -> s.explored);
    feasible = sum (fun s -> s.feasible);
    distinct_graphs = sum (fun s -> s.distinct_graphs);
    truncated = List.exists (fun (r : E.result) -> r.stats.truncated) rs;
    commits = sum (fun s -> s.commits);
    restores = sum (fun s -> s.restores);
    snapshots = sum (fun s -> s.snapshots);
    fiber_switches = sum (fun s -> s.fiber_switches);
    inline_ops = sum (fun s -> s.inline_ops);
    rf_queries = sum (fun s -> s.rf_queries);
    rf_fast = sum (fun s -> s.rf_fast);
    rf_rejected = sum (fun s -> s.rf_rejected);
    pruned_equiv = sum (fun s -> s.pruned_equiv);
    pruned_sleep_set = sum (fun s -> s.pruned_sleep_set);
    pruned_loop_bound = sum (fun s -> s.pruned_loop_bound);
    check =
      {
        s.check with
        cache_hits = sum (fun s -> s.check.cache_hits);
        cache_misses = sum (fun s -> s.check.cache_misses);
        histories_truncated = sum (fun s -> s.check.histories_truncated);
      };
  }

(* The Fig. 8 rows as [bench/main.exe fig8] prints them: the paper's ten
   plus the extension rows, i.e. the exhaustive registry without Bounded
   Queue, which postdates the table. *)
let inject_jobs () =
  List.concat_map
    (fun (b : B.t) ->
      if b.name = "Bounded Queue" then []
      else List.map (fun (s : Ords.site) -> (b, s.name)) (Ords.weakenable b.sites))
    Structures.Registry.exhaustive

let run_inject ~traced =
  List.mapi
    (fun job ((b : B.t), site) ->
      let ords = Option.get (Ords.weakened b.sites site) in
      let root = if traced then Some (open_span ~name:"job" ~job ~parent:(-1)) else None in
      let explore (t : B.test) =
        match root with
        | Some root -> explore_traced ~job ~parent:root.id ~cap:inject_cap b ~ords t
        | None ->
          let cache = Cdsspec.Checker.create_cache ~memoize:true () in
          Mc.Parallel.explore ~jobs:1 ~config:(explore_config b inject_cap)
            ~on_feasible:(Cdsspec.Checker.hook ~config:checker ~cache b.spec)
            ~check:(fun () -> Cdsspec.Checker.cache_counters cache)
            (t.program ords)
      in
      let t0 = now () in
      let rec go acc = function
        | [] -> List.rev acc
        | t :: rest ->
          let r = explore t in
          if r.E.bugs <> [] then List.rev (r :: acc) else go (r :: acc) rest
      in
      let rs = go [] b.tests in
      let ms = (now () -. t0) *. 1000. in
      Option.iter close_span root;
      let last = List.nth rs (List.length rs - 1) in
      let undecided = List.length (List.filter (fun (r : E.result) -> r.stats.truncated) rs) in
      J.Obj
        ([
           ("job", J.Str (b.name ^ "/" ^ site));
           ("detection", J.Str (classify last.bugs));
           ("ms", J.Float ms);
           ("bugs", bug_keys last.bugs);
           ("violations", J.Int (spec_violations last.bugs));
           ("explorations", J.Int (List.length rs));
           ("decided", J.Int (List.length rs - undecided));
         ]
        @ stats_fields (sum_stats rs)))
    (inject_jobs ())

(* ------------------------------------------------------------------ *)
(* fuzz-oversized: Fuzz.Engine over the oversized tests *)

let fuzz_seed ~seed k = (seed * 7919) + k

let fuzz_campaign ~job ~parent ~fseed (b : B.t) (t : B.test) =
  let ords = Ords.default b.sites in
  let cache = Cdsspec.Checker.create_cache ~memoize:true () in
  let hook = Cdsspec.Checker.hook ~config:checker ~cache b.spec in
  let config =
    {
      Fuzz.Engine.default_config with
      scheduler = { b.scheduler with Mc.Scheduler.sleep_sets = false };
      max_executions = Some fuzz_execs;
      time_budget = None;
    }
  in
  let check () = Cdsspec.Checker.cache_counters cache in
  match parent with
  | None -> Fuzz.Engine.run ~config ~on_feasible:hook ~check ~seed:fseed (t.program ords)
  | Some parent ->
    let sp = open_span ~name:"fuzz.run" ~job ~parent in
    let on_feasible exec annots =
      let c = open_span ~name:"core.checker" ~job ~parent:sp.id in
      let v = hook exec annots in
      close_span c;
      v
    in
    let r = Fuzz.Engine.run ~config ~on_feasible ~check ~seed:fseed (t.program ords) in
    close_span sp;
    r

(* [job0] is the first span job id, so that spans of a pass that runs
   other jobs first keep one id per job. *)
let run_fuzz ?(job0 = 0) ~seed ~traced () =
  let suite =
    List.concat_map (fun (b : B.t) -> List.map (fun t -> (b, t)) b.tests) (Structures.Oversized.all ())
  in
  List.init fuzz_seeds (fun k ->
      let job = job0 + k in
      let fseed = fuzz_seed ~seed k in
      let root = if traced then Some (open_span ~name:"job" ~job ~parent:(-1)) else None in
      let parent = Option.map (fun r -> r.id) root in
      let t0 = now () in
      let rs = List.map (fun (b, t) -> fuzz_campaign ~job ~parent ~fseed b t) suite in
      let ms = (now () -. t0) *. 1000. in
      Option.iter close_span root;
      let sum f = List.fold_left (fun acc (r : Fuzz.Engine.result) -> acc + f r.stats) 0 rs in
      let bugs =
        List.concat_map (fun (r : Fuzz.Engine.result) -> List.map (fun (f : Fuzz.Engine.found) -> f.bug) r.found) rs
      in
      let full (r : Fuzz.Engine.result) = (not r.stats.truncated) && r.stats.executions = fuzz_execs in
      J.Obj
        [
          ("job", J.Str (Printf.sprintf "oversized#%d" fseed));
          ("ms", J.Float ms);
          ("bugs", bug_keys bugs);
          ("violations", J.Int (spec_violations bugs));
          ("explorations", J.Int (List.length rs));
          ("decided", J.Int (List.length (List.filter full rs)));
          ("executions", J.Int (sum (fun s -> s.executions)));
          ("feasible", J.Int (sum (fun s -> s.feasible)));
          ("coverage", J.Int (sum (fun s -> s.coverage)));
          ("pruned_loop_bound", J.Int (sum (fun s -> s.pruned_loop_bound)));
          ("cache_hits", J.Int (sum (fun s -> s.check.cache_hits)));
          ("cache_misses", J.Int (sum (fun s -> s.check.cache_misses)));
          ("histories_truncated", J.Int (sum (fun s -> s.check.histories_truncated)));
        ])

(* ------------------------------------------------------------------ *)
(* One in-process pass *)

let layer_fields () =
  [
    ("mc_explore_s", J.Float (span_total "mc.explore"));
    ("fuzz_run_s", J.Float (span_total "fuzz.run"));
    ("checker_s", J.Float (span_total "core.checker"));
    ("mc_checker_s", J.Float (child_total "core.checker" ~parent:"mc.explore"));
    ("fuzz_checker_s", J.Float (child_total "core.checker" ~parent:"fuzz.run"));
    ("checker_calls", J.Int (span_calls "core.checker"));
  ]

let pass workload ~seed ~traced ~spans_file =
  let run =
    match workload with
    | "registry" -> fun () -> run_registry ~traced
    | "inject" -> fun () -> run_inject ~traced
    | "fuzz-oversized" -> fun () -> run_fuzz ~seed ~traced ()
    | "registry-fuzz" ->
      fun () ->
        let registry = run_registry ~traced in
        registry @ run_fuzz ~job0:(List.length registry) ~seed ~traced ()
    | w -> failwith ("unknown workload " ^ w)
  in
  print_endline "ready";
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let jobs = run () in
  let wall = now () -. t0 in
  let g1 = Gc.quick_stat () in
  Option.iter write_spans spans_file;
  print_endline
    (J.to_line
       (J.Obj
          ([
             ("workload", J.Str workload);
             ("traced", J.Bool traced);
             ("wall_s", J.Float wall);
             ("peak_rss_mb", J.Float (vm_hwm_mb ()));
             ("jobs", J.List jobs);
           ]
          @ gc_fields g0 g1
          @ (if traced then layer_fields () else []))))

(* ------------------------------------------------------------------ *)
(* serve-warm: closed loop over two connections to a running daemon *)

let str ev k = Option.bind (J.member k ev) J.to_str
let int_field ev k = Option.value (Option.bind (J.member k ev) J.to_int) ~default:0

let num_field ev k =
  match J.member k ev with Some (J.Float f) -> f | Some (J.Int i) -> float_of_int i | _ -> 0.

(* One check round trip: send, wait for "accepted", then for "done".
   Returns the three times and the job's record. *)
let round_trip conn ~label ((b : B.t), (t : B.test)) =
  let req = J.Obj [ ("op", J.Str "check"); ("bench", J.Str b.name); ("test", J.Str t.test_name) ] in
  let bytes = ref 0 in
  let count ev = bytes := !bytes + String.length (J.to_line ev) + 1 in
  let t_send = now () in
  Serve.Client.send conn req;
  let rec accepted () =
    match Serve.Client.recv conn with
    | Serve.Client.Msg ev ->
      count ev;
      if str ev "event" = Some "accepted" then ev else accepted ()
    | Eof | Timeout -> failwith "serve: connection closed before accepted"
  in
  let acc = accepted () in
  let t_acc = now () in
  let job = Option.value (Serve.Client.job_id acc) ~default:(-1) in
  let evs = Serve.Client.wait conn ~job in
  let t_done = now () in
  List.iter count evs;
  let result =
    Option.value ~default:(J.Obj []) (List.find_opt (fun ev -> str ev "event" = Some "result") evs)
  in
  let bugs =
    match J.member "bugs" result with
    | Some (J.List l) -> List.filter_map (fun b -> Option.bind (J.member "key" b) J.to_str) l
    | _ -> []
  in
  let terminal = List.nth evs (List.length evs - 1) in
  ( (t_send, t_acc, t_done),
    J.Obj
      [
        ("job", J.Str (b.name ^ "/" ^ t.test_name));
        ("phase", J.Str label);
        ("ok", J.Bool (str terminal "event" = Some "done"));
        ("ms", J.Float ((t_done -. t_send) *. 1000.));
        ("accept_ms", J.Float ((t_acc -. t_send) *. 1000.));
        ("server_ms", J.Float (num_field result "time" *. 1000.));
        ("bytes", J.Int !bytes);
        ("bugs", J.List (List.map (fun s -> J.Str s) bugs));
        ("store", J.Str (Option.value (str result "store") ~default:"none"));
        ("explored", J.Int (int_field result "explored"));
        ("feasible", J.Int (int_field result "feasible"));
        ("graphs", J.Int (int_field result "distinct_graphs"));
        ("explorations", J.Int 1);
        ("decided", J.Int (if J.member "truncated" result = Some (J.Bool false) then 1 else 0));
      ] )

(* Deterministic Fisher-Yates from the workload seed and pass number. *)
let shuffle ~seed ~pass_no a =
  let st = Random.State.make [| seed; pass_no |] in
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* The spans of one finished round trip: the job, and its two halves. *)
let record_round_trip ~job (t_send, t_acc, t_done) =
  let add name parent t0 t1 =
    let s = { id = !span_count; name; job; parent; t0; t1 } in
    incr span_count;
    spans := s :: !spans;
    s.id
  in
  let root = add "job" (-1) t_send t_done in
  ignore (add "serve.accepted" root t_send t_acc);
  ignore (add "serve.done" root t_acc t_done)

(* One pass over [order] shared by the two connection threads: each
   sends its next job only after the previous one is done. *)
let serve_pass conns ~label ~traced order =
  let next = ref 0 in
  let mu = Mutex.create () in
  let out = ref [] in
  let rec worker conn =
    let i = Mutex.protect mu (fun () -> let i = !next in incr next; i) in
    if i < Array.length order then begin
      let times, record = round_trip conn ~label order.(i) in
      Mutex.protect mu (fun () ->
          out := record :: !out;
          if traced then record_round_trip ~job:i times);
      worker conn
    end
  in
  let t0 = now () in
  List.iter Thread.join (List.map (Thread.create worker) conns);
  (now () -. t0, List.rev !out)

(* Traced serve-warm runs time [Store.load] over the daemon's store:
   16 loads of each registry entry. *)
let store_loads dir =
  let store = Store.open_dir dir in
  let keys =
    List.map
      (fun ((b : B.t), (t : B.test)) ->
        Store.job_key ~kind:`Check ~bench:b.name ~test:t.test_name
          ~ords:(Ords.to_list (Ords.default b.sites))
          ~sched:b.scheduler ~prune:true ~engine:`Arena ~max_execs:None ~checker ~use_cache:true)
      (registry_jobs ())
  in
  let loads =
    List.concat
      (List.init 16 (fun _ ->
           List.map
             (fun key ->
               let t0 = now () in
               ignore (Store.load store key);
               J.Float ((now () -. t0) *. 1000.))
             keys))
  in
  let size key = (Unix.stat (Filename.concat dir (Store.fingerprint key ^ ".bin"))).Unix.st_size in
  let st = Store.stats store in
  [
    ("store_load_ms", J.List loads);
    ("store_entry_kb", J.List (List.map (fun k -> J.Float (float_of_int (size k) /. 1024.)) keys));
    ("store_load_misses", J.Int st.misses);
  ]

let serve ~socket ~store_dir ~seed ~seconds ~traced ~spans_file =
  let conns = [ Serve.Client.connect socket; Serve.Client.connect socket ] in
  let jobs = Array.of_list (registry_jobs ()) in
  (* Set-up: the cold fill in registry order, then one untimed warm pass. *)
  let _, cold = serve_pass conns ~label:"cold" ~traced:false jobs in
  let _, warmup = serve_pass conns ~label:"warmup" ~traced:false (shuffle ~seed ~pass_no:0 jobs) in
  print_endline (J.to_line (J.Obj [ ("filled", J.List (cold @ warmup)) ]));
  let t0 = now () in
  let rec loop pass_no acc =
    if now () -. t0 >= seconds && pass_no > 2 then List.rev acc
    else
      (* Traced runs alternate traced and untraced passes so the tracing
         overhead is measured on the same daemon. *)
      let traced_pass = traced && pass_no mod 2 = 0 in
      let wall, recs =
        serve_pass conns ~label:"warm" ~traced:traced_pass (shuffle ~seed ~pass_no jobs)
      in
      let p =
        J.Obj [ ("traced", J.Bool traced_pass); ("wall_s", J.Float wall); ("jobs", J.List recs) ]
      in
      loop (pass_no + 1) (p :: acc)
  in
  let passes = loop 1 [] in
  let window = now () -. t0 in
  List.iter Serve.Client.close conns;
  Option.iter write_spans spans_file;
  print_endline
    (J.to_line
       (J.Obj
          ([
             ("workload", J.Str "serve-warm");
             ("window_s", J.Float window);
             ("passes", J.List passes);
           ]
          @ (if traced then store_loads store_dir else []))))

(* ------------------------------------------------------------------ *)
(* Host calibration: a fixed CPU-bound loop, so a reader can tell a slow
   host from a slow program. *)

let calib () =
  let t0 = now () in
  let acc = ref 0 in
  for i = 1 to 200_000_000 do
    acc := (!acc * 31) + i land 0xffff
  done;
  let dt = now () -. t0 in
  print_endline
    (J.to_line
       (J.Obj
          [
            ("calib_s", J.Float dt);
            ("checksum", J.Int (!acc land 0xff));
            ("engine_rev", J.Str Mc.Engine_rev.current);
            ("ocaml", J.Str Sys.ocaml_version);
          ]))

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opt k = function
    | x :: v :: _ when x = k -> Some v
    | _ :: rest -> opt k rest
    | [] -> None
  in
  let need k = match opt k args with Some v -> v | None -> failwith ("missing " ^ k) in
  let traced () = need "--trace" = "1" in
  let seed () = int_of_string (need "--seed") in
  match args with
  | "calib" :: _ -> calib ()
  | "pass" :: _ :: "--setup-only" :: _ -> print_endline "ready"
  | "pass" :: workload :: _ ->
    pass workload ~seed:(seed ()) ~traced:(traced ()) ~spans_file:(opt "--spans" args)
  | "serve" :: _ ->
    serve ~socket:(need "--socket") ~store_dir:(need "--store") ~seed:(seed ())
      ~seconds:(float_of_string (need "--seconds"))
      ~traced:(traced ()) ~spans_file:(opt "--spans" args)
  | _ ->
    prerr_endline "usage: bench.exe calib | pass WORKLOAD ... | serve ...";
    exit 2
