// Spec-grammar golden tests: the string form, the JSON form, their round
// trips, validation errors (one actionable message per misuse), and
// backend auto-resolution.
#include "scenario/spec.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "support/check.hpp"

namespace plurality::scenario {
namespace {

TEST(ScenarioSpec, DefaultsValidate) {
  const ScenarioSpec spec;
  EXPECT_NO_THROW(spec.validate());
  EXPECT_EQ(spec.resolved_backend(), "count");
}

TEST(ScenarioSpec, ParseStringForm) {
  const ScenarioSpec spec = ScenarioSpec::parse(
      "dynamics=undecided topology=regular:8 workload=bias:2c n=1e6 k=5 "
      "engine=batched trials=32 seed=9 max_rounds=5000 "
      "shuffle_layout=true adversary=random:100 backend=graph");
  EXPECT_EQ(spec.dynamics, "undecided");
  EXPECT_EQ(spec.topology, "regular:8");
  EXPECT_EQ(spec.workload, "bias:2c");
  EXPECT_EQ(spec.n, 1'000'000u);
  EXPECT_EQ(spec.k, 5u);
  EXPECT_EQ(spec.engine, "batched");
  EXPECT_EQ(spec.trials, 32u);
  EXPECT_EQ(spec.seed, 9u);
  EXPECT_EQ(spec.max_rounds, 5000u);
  EXPECT_TRUE(spec.shuffle_layout);
  EXPECT_EQ(spec.adversary, "random:100");
  EXPECT_EQ(spec.backend, "graph");
  EXPECT_NO_THROW(spec.validate());
  // Unmentioned fields keep their defaults.
  EXPECT_EQ(spec.stop, "consensus");
}

TEST(ScenarioSpec, StringFormRoundTrips) {
  ScenarioSpec spec;
  spec.dynamics = "7-plurality";
  spec.topology = "torus:25x40";
  spec.workload = "zipf:0.8";
  spec.n = 1000;
  spec.k = 7;
  spec.engine = "batched";
  spec.backend = "graph";
  const ScenarioSpec reparsed = ScenarioSpec::parse(spec.to_spec_string());
  EXPECT_EQ(reparsed.to_spec_string(), spec.to_spec_string());
}

TEST(ScenarioSpec, MalformedStringsThrow) {
  EXPECT_THROW(ScenarioSpec::parse(""), CheckError);
  EXPECT_THROW(ScenarioSpec::parse("nonsense"), CheckError);          // no '='
  EXPECT_THROW(ScenarioSpec::parse("=value"), CheckError);            // empty key
  EXPECT_THROW(ScenarioSpec::parse("bogus=1"), CheckError);           // unknown field
  EXPECT_THROW(ScenarioSpec::parse("n=12 n=13"), CheckError);         // duplicate
  EXPECT_THROW(ScenarioSpec::parse("n=abc"), CheckError);             // bad number
  EXPECT_THROW(ScenarioSpec::parse("n=1.5"), CheckError);             // non-integral
  EXPECT_THROW(ScenarioSpec::parse("shuffle_layout=maybe"), CheckError);  // bad bool
}

TEST(ScenarioSpec, ParallelFieldIsRejectedNamingThePlanner) {
  // How trials use the threads is the execution planner's call now; every
  // face of the spec refuses the old field with a message that says so.
  const auto message = [](const auto& parse) {
    try {
      parse();
    } catch (const CheckError& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  for (const char* value : {"true", "false", "0", "1"}) {
    const std::string text = std::string("n=100 parallel=") + value;
    EXPECT_NE(message([&] { (void)ScenarioSpec::parse(text); }).find("planner"),
              std::string::npos)
        << text;
  }
  ScenarioSpec spec;
  EXPECT_NE(message([&] { spec.set_field("parallel", "false"); }).find("planner"),
            std::string::npos);
  EXPECT_NE(message([] {
              (void)ScenarioSpec::from_json(io::parse_json(R"({"parallel": false})"));
            }).find("planner"),
            std::string::npos);
}

TEST(ScenarioSpec, RemovedFieldsAndValuesAreRejectedNamingTheRemoval) {
  // Graphs step in the order their builder numbered them, with the default
  // cache tuning, and `batched` is the only counter-based graph pipeline;
  // every face of the spec refuses the old fields and the old engine by
  // name. A removed field fails at parse time, a removed value at
  // validate().
  const auto message = [](const auto& parse) {
    try {
      parse();
    } catch (const CheckError& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  struct Removed {
    std::string key;
    std::string value;
    std::string needle;
  };
  const std::string push_needle =
      "engine 'push' was removed; it was bitwise identical to 'batched' — use "
      "engine=batched";
  const std::string agent_needle =
      "backend 'agent' was removed; it was bitwise identical to the graph engine on the "
      "clique";
  const std::vector<Removed> removed = {
      {"graph_layout", "rcm", "'graph_layout' is no longer a spec field"},
      {"graph_layout", "identity", "'graph_layout' is no longer a spec field"},
      {"tile_nodes", "512", "'tile_nodes' is no longer a spec field"},
      {"prefetch_distance", "32", "'prefetch_distance' is no longer a spec field"},
      {"prefetch_distance", "not-a-number", "'prefetch_distance' is no longer a spec field"},
      {"engine", "push", push_needle},
      {"backend", "agent", agent_needle}};
  for (const auto& [key, value, needle] : removed) {
    const std::string text = "topology=regular:8 " + key + "=" + value;
    EXPECT_NE(message([&] { ScenarioSpec::parse(text).validate(); }).find(needle),
              std::string::npos)
        << text;
    ScenarioSpec spec;
    EXPECT_NE(message([&] {
                spec.set_field(key, value);
                spec.validate();
              }).find(needle),
              std::string::npos)
        << key;
    const std::string json = "{\"" + key + "\": \"" + value + "\"}";
    EXPECT_NE(message([&] { ScenarioSpec::from_json(io::parse_json(json)).validate(); })
                  .find(needle),
              std::string::npos)
        << json;
  }
  // Unknown engine names say what IS known, and push is not among them.
  const std::string unknown_engine =
      message([] { ScenarioSpec::parse("engine=scatter").validate(); });
  EXPECT_NE(unknown_engine.find("'strict' or 'batched'"), std::string::npos)
      << unknown_engine;
  EXPECT_EQ(unknown_engine.find("push"), std::string::npos) << unknown_engine;
  // The same for backends: agent is refused by name on the clique too, and
  // an unknown backend's hint no longer lists it.
  EXPECT_NE(message([] { ScenarioSpec::parse("backend=agent").validate(); }).find(agent_needle),
            std::string::npos);
  const std::string unknown_backend =
      message([] { ScenarioSpec::parse("backend=gpu").validate(); });
  EXPECT_NE(unknown_backend.find("auto/count/graph"), std::string::npos) << unknown_backend;
  EXPECT_EQ(unknown_backend.find("agent"), std::string::npos) << unknown_backend;
  EXPECT_NE(message([] {
              (void)ScenarioSpec::from_json(io::parse_json(R"({"tile_nodes": 64})"));
            }).find("'tile_nodes' is no longer a spec field"),
            std::string::npos);
  // Neither the spec's emitted forms nor the unknown-field hint name them.
  const ScenarioSpec spec;
  for (const char* key : {"graph_layout", "tile_nodes", "prefetch_distance"}) {
    EXPECT_EQ(spec.to_spec_string().find(key), std::string::npos) << key;
    EXPECT_EQ(spec.to_json().to_string().find(key), std::string::npos) << key;
    EXPECT_EQ(message([] { (void)ScenarioSpec::parse("bogus=1"); }).find(key),
              std::string::npos)
        << key;
  }
  // With no relabeling left to contradict, the block layout is legal on
  // every topology.
  EXPECT_NO_THROW(ScenarioSpec::parse("topology=regular:8 shuffle_layout=false").validate());
}

TEST(ScenarioSpec, JsonRoundTrips) {
  ScenarioSpec spec;
  spec.dynamics = "voter";
  spec.topology = "er:0.01";
  spec.workload = "share:0.4";
  spec.adversary = "boost-runner-up:50";
  spec.backend = "graph";
  spec.engine = "strict";
  spec.n = 2000;
  spec.k = 4;
  spec.trials = 3;
  spec.shuffle_layout = false;

  const io::JsonValue emitted = spec.to_json();
  const ScenarioSpec reparsed =
      ScenarioSpec::from_json(io::parse_json(emitted.to_string()));
  EXPECT_EQ(reparsed.to_json().to_string(), emitted.to_string());
  EXPECT_EQ(reparsed.to_spec_string(), spec.to_spec_string());
}

TEST(ScenarioSpec, JsonUnknownOrMistypedFieldsThrow) {
  EXPECT_THROW(ScenarioSpec::from_json(io::parse_json(R"({"dynamic": "voter"})")),
               CheckError);  // typo'd key must not silently run defaults
  EXPECT_THROW(ScenarioSpec::from_json(io::parse_json(R"({"n": "many"})")), CheckError);
  EXPECT_THROW(ScenarioSpec::from_json(io::parse_json(R"({"shuffle_layout": 3.7})")),
               CheckError);
  EXPECT_THROW(ScenarioSpec::from_json(io::parse_json(R"([1, 2])")), CheckError);
}

TEST(ScenarioSpec, JsonFileRoundTrip) {
  const std::string path = "test_scenario_spec.tmp.json";
  ScenarioSpec spec;
  spec.dynamics = "undecided";
  spec.n = 4096;
  spec.k = 8;
  io::write_json_file(path, spec.to_json());
  const ScenarioSpec loaded = ScenarioSpec::from_json_file(path);
  EXPECT_EQ(loaded.to_spec_string(), spec.to_spec_string());
  std::remove(path.c_str());
}

TEST(ScenarioSpec, ValidationCatchesEveryAxis) {
  const auto invalid = [](auto&& mutate) {
    ScenarioSpec spec;
    spec.n = 900;  // perfect square, so torus specs can pass when wanted
    spec.k = 3;
    mutate(spec);
    return spec;
  };
  // Scalars.
  EXPECT_THROW(invalid([](ScenarioSpec& s) { s.n = 0; }).validate(), CheckError);
  EXPECT_THROW(invalid([](ScenarioSpec& s) { s.k = 1; }).validate(), CheckError);
  EXPECT_THROW(invalid([](ScenarioSpec& s) { s.k = 901; }).validate(), CheckError);
  EXPECT_THROW(invalid([](ScenarioSpec& s) { s.trials = 0; }).validate(), CheckError);
  EXPECT_THROW(invalid([](ScenarioSpec& s) { s.max_rounds = 0; }).validate(), CheckError);
  // Registry names.
  EXPECT_THROW(invalid([](ScenarioSpec& s) { s.dynamics = "4-majority"; }).validate(),
               CheckError);
  EXPECT_THROW(invalid([](ScenarioSpec& s) { s.workload = "flat"; }).validate(), CheckError);
  EXPECT_THROW(invalid([](ScenarioSpec& s) { s.topology = "hypercube"; }).validate(),
               CheckError);
  EXPECT_THROW(invalid([](ScenarioSpec& s) { s.adversary = "byzantine:3"; }).validate(),
               CheckError);
  // Topology/workload shape constraints.
  EXPECT_THROW(invalid([](ScenarioSpec& s) { s.topology = "torus:10x10"; }).validate(),
               CheckError);  // 100 != 900
  EXPECT_THROW(invalid([](ScenarioSpec& s) {
                 s.n = 901;  // odd * odd degree
                 s.topology = "regular:3";
               }).validate(),
               CheckError);
  EXPECT_THROW(invalid([](ScenarioSpec& s) { s.topology = "er:1.5"; }).validate(),
               CheckError);
  EXPECT_THROW(invalid([](ScenarioSpec& s) {
                 s.workload = "theorem3:10";
                 s.k = 4;  // theorem3 forces k = 3
               }).validate(),
               CheckError);
  EXPECT_NO_THROW(invalid([](ScenarioSpec& s) {
                    s.workload = "theorem3:10";
                    s.k = 3;
                  }).validate());
  // Backend/engine/adversary/stop combinations.
  EXPECT_THROW(invalid([](ScenarioSpec& s) { s.backend = "gpu"; }).validate(), CheckError);
  EXPECT_THROW(invalid([](ScenarioSpec& s) { s.engine = "turbo"; }).validate(), CheckError);
  EXPECT_THROW(invalid([](ScenarioSpec& s) {
                 s.backend = "count";
                 s.topology = "ring";
               }).validate(),
               CheckError);
  EXPECT_THROW(invalid([](ScenarioSpec& s) { s.stop = "sometime"; }).validate(), CheckError);
  EXPECT_THROW(invalid([](ScenarioSpec& s) { s.stop = "m-plurality:"; }).validate(),
               CheckError);
  EXPECT_THROW(invalid([](ScenarioSpec& s) { s.stop = "any-reaches:1000000"; }).validate(),
               CheckError);  // threshold > n
  EXPECT_NO_THROW(invalid([](ScenarioSpec& s) { s.stop = "m-plurality:50"; }).validate());
  // Stop predicates run on every driver, the graph driver included.
  EXPECT_NO_THROW(invalid([](ScenarioSpec& s) {
                    s.backend = "graph";
                    s.topology = "ring";
                    s.stop = "m-plurality:50";
                  }).validate());
}

TEST(ScenarioSpec, NoExactLawCliqueTakesEveryGraphOption) {
  // A clique spec without an exact law resolves to the graph engine's
  // per-agent clique under either engine, and that driver hosts
  // adversaries and stop predicates.
  ScenarioSpec spec;
  spec.dynamics = "20-plurality";  // no exact law at k = 16
  spec.k = 16;
  spec.n = 2000;
  spec.adversary = "random:10";
  spec.stop = "m-plurality:100";
  for (const char* engine : {"strict", "batched"}) {
    spec.engine = engine;
    EXPECT_NO_THROW(spec.validate()) << engine;
    EXPECT_EQ(spec.resolved_backend(), "graph") << engine;
  }
}

TEST(ScenarioSpec, ResolvedBackend) {
  ScenarioSpec spec;
  spec.n = 2000;
  spec.k = 3;
  EXPECT_EQ(spec.resolved_backend(), "count");  // clique + exact law

  spec.topology = "regular:8";
  EXPECT_EQ(spec.resolved_backend(), "graph");  // sparse topology

  spec.topology = "clique";
  spec.dynamics = "20-plurality";  // C(35, 20) law terms at k = 16: no exact law
  spec.k = 16;
  EXPECT_EQ(spec.resolved_backend(), "graph");  // the per-agent clique
  spec.engine = "batched";
  EXPECT_EQ(spec.resolved_backend(), "graph");

  spec.engine = "strict";
  spec.backend = "graph";  // explicit backends pass through
  EXPECT_EQ(spec.resolved_backend(), "graph");
}

TEST(ScenarioSpec, StopConditionParses) {
  EXPECT_EQ(parse_stop_condition("consensus").kind, StopCondition::Kind::Consensus);
  const StopCondition m = parse_stop_condition("m-plurality:128");
  EXPECT_EQ(m.kind, StopCondition::Kind::MPlurality);
  EXPECT_EQ(m.value, 128u);
  const StopCondition t = parse_stop_condition("any-reaches:1e4");
  EXPECT_EQ(t.kind, StopCondition::Kind::AnyReaches);
  EXPECT_EQ(t.value, 10000u);
  EXPECT_THROW(parse_stop_condition("whenever"), CheckError);
  EXPECT_THROW(parse_stop_condition("any-reaches:soon"), CheckError);
}

}  // namespace
}  // namespace plurality::scenario
