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

TEST(ScenarioSpec, RemovedLocalityFieldsAreRejectedNamingTheRemoval) {
  // Graphs step in the order their builder numbered them, with the default
  // cache tuning; every face of the spec refuses the old fields by name.
  const auto message = [](const auto& parse) {
    try {
      parse();
    } catch (const CheckError& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  const std::vector<std::pair<std::string, std::string>> removed = {
      {"graph_layout", "rcm"}, {"graph_layout", "identity"}, {"tile_nodes", "512"},
      {"prefetch_distance", "32"}, {"prefetch_distance", "not-a-number"}};
  for (const auto& [key, value] : removed) {
    const std::string needle = "'" + key + "' is no longer a spec field";
    const std::string text = "topology=regular:8 " + key + "=" + value;
    EXPECT_NE(message([&] { (void)ScenarioSpec::parse(text); }).find(needle),
              std::string::npos)
        << text;
    ScenarioSpec spec;
    EXPECT_NE(message([&] { spec.set_field(key, value); }).find(needle), std::string::npos)
        << key;
    const std::string json = "{\"" + key + "\": \"" + value + "\"}";
    EXPECT_NE(message([&] { (void)ScenarioSpec::from_json(io::parse_json(json)); })
                  .find(needle),
              std::string::npos)
        << json;
  }
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

TEST(ScenarioSpec, PushEngineGating) {
  const auto rejects = [](const std::string& text, const std::string& needle) {
    try {
      ScenarioSpec::parse(text).validate();
      ADD_FAILURE() << "expected '" << text << "' to be rejected";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "message for '" << text << "' lacks '" << needle << "': " << e.what();
    }
  };
  // The happy path: arity-1 dynamics on the graph backend.
  ScenarioSpec::parse("engine=push dynamics=voter k=2 topology=regular:8").validate();
  ScenarioSpec::parse("engine=push dynamics=undecided topology=torus n=10000").validate();
  // Push on the clique auto-routes to the graph engine (the implicit
  // complete graph), never to count/agent.
  EXPECT_EQ(ScenarioSpec::parse("engine=push dynamics=voter k=2 topology=clique")
                .resolved_backend(),
            "graph");
  // Arity >= 2 rules have no scatter formulation.
  rejects("engine=push dynamics=3-majority topology=regular:8", "arity-1");
  // Explicit non-graph backends cannot run it.
  rejects("engine=push dynamics=voter k=2 topology=clique backend=count", "backend");
  rejects("engine=push dynamics=voter k=2 topology=clique backend=agent", "backend");
  // The pair buffer packs two u32 ids per word.
  ScenarioSpec big = ScenarioSpec::parse("engine=push dynamics=voter k=2 topology=gossip");
  big.n = 8589934592ULL;  // 2^33
  EXPECT_THROW(big.validate(), CheckError);
  // Unknown engine names still say what IS known.
  rejects("engine=scatter", "push");
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
  EXPECT_THROW(invalid([](ScenarioSpec& s) {
                 s.backend = "agent";
                 s.engine = "batched";
               }).validate(),
               CheckError);
  EXPECT_THROW(invalid([](ScenarioSpec& s) {
                 s.backend = "agent";
                 s.adversary = "random:5";
               }).validate(),
               CheckError);
  EXPECT_THROW(invalid([](ScenarioSpec& s) { s.stop = "sometime"; }).validate(), CheckError);
  EXPECT_THROW(invalid([](ScenarioSpec& s) { s.stop = "m-plurality:"; }).validate(),
               CheckError);
  EXPECT_THROW(invalid([](ScenarioSpec& s) {
                 s.backend = "graph";
                 s.topology = "ring";
                 s.stop = "m-plurality:50";
               }).validate(),
               CheckError);
  EXPECT_THROW(invalid([](ScenarioSpec& s) { s.stop = "any-reaches:1000000"; }).validate(),
               CheckError);  // threshold > n
  EXPECT_NO_THROW(invalid([](ScenarioSpec& s) { s.stop = "m-plurality:50"; }).validate());
}

TEST(ScenarioSpec, AutoResolvedAgentConstraintsApply) {
  // backend=auto routing to the agent backend must enforce the same
  // constraints as an explicit backend=agent — otherwise the spec passes
  // validation and the driver's own check fires inside the parallel trial
  // loop, which aborts the process without a message.
  ScenarioSpec spec;
  spec.dynamics = "20-plurality";  // no exact law at k = 16 -> auto resolves to agent
  spec.k = 16;
  spec.n = 2000;
  spec.adversary = "random:10";
  EXPECT_THROW(spec.validate(), CheckError);
  spec.adversary = "none";
  EXPECT_NO_THROW(spec.validate());
  // Under the batched engine auto resolves to the graph clique instead,
  // which does host adversaries.
  spec.engine = "batched";
  spec.adversary = "random:10";
  EXPECT_NO_THROW(spec.validate());
  EXPECT_EQ(spec.resolved_backend(), "graph");
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
  EXPECT_EQ(spec.resolved_backend(), "agent");
  spec.engine = "batched";  // the agent backend cannot batch; the graph clique can
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
