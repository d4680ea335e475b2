(* Differential tests for equivalence pruning.

   The pruning soundness contract: for every unit test of every
   exhaustive registry structure, exploring with [prune = true] (prune
   keys at scheduling and at reads-from/CAS choice points) must report
   exactly the same distinct-graph set, the same deduplicated bug list
   (same keys, same order — including checker verdicts, which arrive
   through the [Cdsspec.Checker.hook] as spec-violation bugs) and the
   same first buggy trace as the unpruned explorer — in serial and
   under [-j2] work-stealing parallelism. Pruning may only cut work, never add it:
   the pruned run explores at most as many interleavings. *)

module E = Mc.Explorer
module B = Structures.Benchmark

(* Large enough that every gated structure exhausts; runs that still
   truncate are skipped (truncated pruned/unpruned pairs legitimately
   diverge) but the test fails if too few structures were actually
   compared, so the differential can never go vacuous. *)
let cap = 30_000

let explore ~prune ~jobs (b : B.t) ~ords (t : B.test) =
  let config =
    {
      E.default_config with
      scheduler = b.B.scheduler;
      max_executions = Some cap;
      prune;
    }
  in
  let hook = Cdsspec.Checker.hook b.B.spec in
  if jobs <= 1 then E.explore ~config ~on_feasible:hook (t.B.program ords)
  else Mc.Parallel.explore ~config ~on_feasible:hook ~jobs (t.B.program ords)

let keys (r : E.result) = List.map Mc.Bug.key r.bugs

(* Compare a pruned run against the unpruned reference: identical
   semantic outputs, never more work. *)
let check_against ~where (off : E.result) (on_ : E.result) =
  Alcotest.(check bool) (where ^ ": pruned run exhausts too") false on_.stats.truncated;
  Alcotest.(check bool)
    (where ^ ": pruning never adds work")
    true
    (on_.stats.explored <= off.stats.explored);
  Alcotest.(check int)
    (where ^ ": distinct graphs")
    off.stats.distinct_graphs on_.stats.distinct_graphs;
  Alcotest.(check bool) (where ^ ": graph sets identical") true (off.graphs = on_.graphs);
  Alcotest.(check (list string)) (where ^ ": bug keys") (keys off) (keys on_);
  Alcotest.(check (option string))
    (where ^ ": first buggy trace")
    off.first_buggy_trace on_.first_buggy_trace

(* Returns whether the test was gated. *)
let check_test ?ords ?(label = "") (b : B.t) (t : B.test) =
  let ords = match ords with Some o -> o | None -> Structures.Ords.default b.B.sites in
  let where = b.B.name ^ label ^ "/" ^ t.B.test_name in
  let off = explore ~prune:false ~jobs:1 b ~ords t in
  if off.stats.truncated then
    (* beyond the cap: the unpruned reference is partial, so the
       graph-set comparison is meaningless — skip, counted by the
       callers' floors *)
    false
  else begin
    let on_serial = explore ~prune:true ~jobs:1 b ~ords t in
    let on_par = explore ~prune:true ~jobs:2 b ~ords t in
    check_against ~where:(where ^ " (serial)") off on_serial;
    check_against ~where:(where ^ " (-j2)") off on_par;
    (* the pruned counters reconcile: every explored run either repeats a
       known graph or contributes a fresh one (or was cut earlier) *)
    Alcotest.(check bool)
      (where ^ ": pruned_equiv bounded")
      true
      (on_serial.stats.pruned_equiv <= on_serial.stats.explored);
    true
  end

let find name =
  match Structures.Registry.find name with
  | Some b -> b
  | None -> Alcotest.fail ("missing " ^ name)

let test_registry_differential () =
  let structures = ref 0 and tests = ref 0 in
  List.iter
    (fun (b : B.t) ->
      let gated = List.filter (check_test b) b.B.tests in
      tests := !tests + List.length gated;
      if gated <> [] then incr structures)
    Structures.Registry.exhaustive;
  (* the gate must not be vacuous: most exhaustive structures exhaust
     well under the cap *)
  Alcotest.(check bool)
    (Printf.sprintf "at least 12 structures gated (got %d, %d tests)" !structures !tests)
    true (!structures >= 12)

(* Known-buggy memory orders: pruning must preserve the bug list and the
   elected first buggy trace, not just graph counts. *)
let check_known_bugs name known_bugs =
  let b = find name in
  let t = List.hd b.B.tests in
  let gated =
    List.filter (fun (label, ords) -> check_test ~ords ~label:("[" ^ label ^ "]") b t) known_bugs
  in
  Alcotest.(check bool) (name ^ ": buggy configurations gated") true (gated <> []);
  (* sanity: the weakened orders do produce bugs, so the bug-list
     comparison above was not trivially empty = empty *)
  List.iter
    (fun (label, ords) ->
      let r = explore ~prune:true ~jobs:1 b ~ords t in
      Alcotest.(check bool) (name ^ "[" ^ label ^ "] buggy under pruning") true (r.bugs <> []))
    gated

let test_buggy_differential () =
  check_known_bugs "M&S Queue" Structures.Ms_queue.known_bugs;
  check_known_bugs "Bounded Queue" Structures.Bounded_queue.known_bugs

(* On a structure with rich graph-repetition (many interleavings per
   graph), pruning must actually fire — guards against a fingerprint so
   fine-grained it never matches. *)
let test_pruning_fires () =
  let b = find "Seqlock" in
  let ords = Structures.Ords.default b.B.sites in
  let t = List.hd b.B.tests in
  let off = explore ~prune:false ~jobs:1 b ~ords t in
  let on_ = explore ~prune:true ~jobs:1 b ~ords t in
  Alcotest.(check bool) "reference exhausts" false off.stats.truncated;
  Alcotest.(check bool) "pruning fired" true (on_.stats.pruned_equiv > 0);
  Alcotest.(check bool)
    "strictly fewer interleavings"
    true
    (on_.stats.explored < off.stats.explored)

(* The test whose reads-from choices revisit states the most: with keys
   at scheduling points only it ran past the shipped 500k cap (531k runs
   to exhaust). With keys at choice points it exhausts under the shipped
   defaults and reports the full graph count of an uncapped run. *)
let test_mcs_handoff_exhausts () =
  let b = find "MCS Lock" in
  let t =
    match List.find_opt (fun (t : B.test) -> t.B.test_name = "handoff") b.B.tests with
    | Some t -> t
    | None -> Alcotest.fail "missing MCS Lock/handoff"
  in
  let config =
    { E.default_config with scheduler = b.B.scheduler; max_executions = Some 500_000 }
  in
  let r =
    E.explore ~config ~on_feasible:(Cdsspec.Checker.hook b.B.spec)
      (t.B.program (Structures.Ords.default b.B.sites))
  in
  Alcotest.(check bool) "not truncated" false r.stats.truncated;
  Alcotest.(check int) "distinct graphs" 10_950 r.stats.distinct_graphs;
  Alcotest.(check bool) "clean" true (r.bugs = []);
  Alcotest.(check bool) "choice-point cuts fired" true (r.stats.pruned_equiv_choice > 0)

let () =
  Alcotest.run "prune"
    [
      ( "differential",
        [
          Alcotest.test_case "every exhaustive structure" `Slow test_registry_differential;
          Alcotest.test_case "known-buggy orders" `Quick test_buggy_differential;
          Alcotest.test_case "pruning fires" `Quick test_pruning_fires;
          Alcotest.test_case "MCS handoff exhausts" `Slow test_mcs_handoff_exhausts;
        ] );
    ]
