(* The metric catalogue: every name the harness may report, with its
   unit. BENCHMARK.json lists the same names; the tests check that the
   two agree. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("host_ops_per_s", "ops/s");
    ("sim_op_cycles.p50", "cycles");
    ("sim_op_cycles.p99", "cycles");
    ("rss_peak_mb", "MiB");
  ]

(* The pointer representations the paper evaluates, in its order. *)
let reprs =
  Core.Repr.[ Normal; Off_holder; Riv; Fat; Fat_cached; Based; Swizzle ]

(* Crash-scenario families, keyed by scenario-name prefix. *)
let families =
  [
    ("struct", "struct-");
    ("kvstore", "kvstore/");
    ("objstore", "objstore-");
    ("palloc", "palloc-");
    ("durable", "durable-");
    ("snapshot", "snapshot-");
    ("swizzle", "swizzle-");
    ("pinned", "pinned-");
    ("selftest", "selftest-");
  ]

(* Spans the timed phase can record; each gets a [share.<span>] metric,
   its self time as a share of the traced timed phase. *)
let timed_spans =
  [
    "harness.op";
    "structures.traverse";
    "structures.search";
    "core.swizzle";
    "core.unswizzle";
    "server.residency.hit";
    "server.residency.miss";
    "apps.get";
    "apps.put";
    "apps.delete";
    "faultsim.record";
    "faultsim.replay";
    "faultsim.boot";
    "faultsim.verify";
  ]

let per_layer =
  [
    ("memsim.accesses_per_op", "count");
    ("memsim.host_ns_per_access", "ns");
    ("cachesim.l1_hit_ratio", "ratio");
    ("cachesim.l2_hit_ratio", "ratio");
    ("cachesim.l3_hit_ratio", "ratio");
    ("cachesim.cycles.alu", "cycles");
    ("cachesim.cycles.cache", "cycles");
    ("cachesim.cycles.dram", "cycles");
    ("cachesim.cycles.nvm", "cycles");
    ("cachesim.cycles.flush", "cycles");
    ("cachesim.cycles.fence", "cycles");
    ("cachesim.flushes_per_op", "count");
    ("cachesim.fences_per_op", "count");
    ("core.machine_create_us", "us");
    ("core.riv_table_loads_per_op", "count");
    ("core.fat_probes_per_lookup", "count");
    ("core.fat_cache_hit_ratio", "ratio");
  ]
  @ List.concat_map
      (fun r ->
        let r = Core.Repr.to_string r in
        [
          (Printf.sprintf "core.%s.host_us_per_op" r, "us");
          (Printf.sprintf "core.%s.sim_cycles_per_op" r, "cycles");
        ])
      reprs
  @ [
      ("structures.insert_us", "us");
      ("structures.traverse_us", "us");
      ("structures.search_us", "us");
      ("server.hit_us", "us");
      ("server.miss_us", "us");
      ("server.residency_hit_ratio", "ratio");
      ("server.miss_cycles", "cycles");
      ("apps.get_us", "us");
      ("apps.put_us", "us");
      ("apps.delete_us", "us");
      ("apps.get_cycles", "cycles");
      ("apps.put_cycles", "cycles");
      ("apps.delete_cycles", "cycles");
      ("palloc.allocs_per_op", "count");
      ("palloc.frees_per_op", "count");
      ("palloc.frag_bytes", "bytes");
      ("faultsim.record_us_per_event", "us");
      ("faultsim.events", "count");
      ("faultsim.replay_us", "us");
      ("faultsim.boot_us", "us");
      ("faultsim.verify_us", "us");
    ]
  @ List.concat_map
      (fun (f, _) ->
        [
          (Printf.sprintf "faultsim.%s.points" f, "count");
          (Printf.sprintf "faultsim.%s.us_per_point" f, "us");
        ])
      families
  @ [
      ("gc.alloc_words_per_op", "words");
      ("gc.major_collections", "count");
      ("trace.overhead", "ratio");
      ("trace.unattributed_share", "ratio");
    ]
  @ List.map (fun s -> ("share." ^ s, "ratio")) timed_spans

let family_of_scenario name =
  match
    List.find_opt
      (fun (_, prefix) -> String.starts_with ~prefix name)
      families
  with
  | Some (f, _) -> f
  | None -> failwith ("perfbench: unclassified crash scenario " ^ name)
