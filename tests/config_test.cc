/**
 * @file
 * Tests for the configuration stack: the argument parser, the INI
 * parser, the H2PConfig binding, and the config field table behind
 * the checkpoint and sweep-journal resume checks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <type_traits>

#include "core/config_io.h"
#include "core/sweep_engine.h"
#include "sim/config.h"
#include "util/args.h"
#include "util/error.h"
#include "util/logging.h"

namespace h2p {
namespace {

// ------------------------------------------------------------------ args

TEST(ArgsTest, DefaultsApplyWhenUnset)
{
    ArgParser args("prog");
    args.addString("name", "foo", "a name")
        .addDouble("x", 2.5, "a number")
        .addLong("n", 7, "a count")
        .addFlag("fast", "go fast");
    const char *argv[] = {"prog"};
    ASSERT_TRUE(args.parse(1, argv));
    EXPECT_EQ(args.getString("name"), "foo");
    EXPECT_DOUBLE_EQ(args.getDouble("x"), 2.5);
    EXPECT_EQ(args.getLong("n"), 7);
    EXPECT_FALSE(args.getFlag("fast"));
}

TEST(ArgsTest, ParsesValuesAndFlags)
{
    ArgParser args("prog");
    args.addString("name", "foo", "");
    args.addDouble("x", 0.0, "");
    args.addFlag("fast", "");
    const char *argv[] = {"prog", "--name", "bar", "--x", "3.5",
                          "--fast"};
    ASSERT_TRUE(args.parse(6, argv));
    EXPECT_EQ(args.getString("name"), "bar");
    EXPECT_DOUBLE_EQ(args.getDouble("x"), 3.5);
    EXPECT_TRUE(args.getFlag("fast"));
}

TEST(ArgsTest, HelpReturnsFalse)
{
    ArgParser args("prog");
    const char *argv[] = {"prog", "--help"};
    EXPECT_FALSE(args.parse(2, argv));
}

TEST(ArgsTest, RejectsUnknownAndMalformed)
{
    ArgParser args("prog");
    args.addDouble("x", 0.0, "");
    const char *bad_name[] = {"prog", "--y", "1"};
    EXPECT_THROW(args.parse(3, bad_name), Error);
    const char *bad_value[] = {"prog", "--x", "abc"};
    EXPECT_THROW(args.parse(3, bad_value), Error);
    const char *missing[] = {"prog", "--x"};
    EXPECT_THROW(args.parse(2, missing), Error);
    const char *positional[] = {"prog", "stray"};
    EXPECT_THROW(args.parse(2, positional), Error);
}

TEST(ArgsTest, TypeMismatchAccessThrows)
{
    ArgParser args("prog");
    args.addDouble("x", 1.0, "");
    const char *argv[] = {"prog"};
    args.parse(1, argv);
    EXPECT_THROW(args.getString("x"), Error);
    EXPECT_THROW(args.getDouble("missing"), Error);
}

TEST(ArgsTest, UsageListsOptions)
{
    ArgParser args("prog", "does things");
    args.addLong("count", 3, "how many");
    std::string u = args.usage();
    EXPECT_NE(u.find("--count"), std::string::npos);
    EXPECT_NE(u.find("how many"), std::string::npos);
    EXPECT_NE(u.find("default: 3"), std::string::npos);
}

TEST(ArgsTest, RejectsDuplicateDeclaration)
{
    ArgParser args("prog");
    args.addFlag("x", "");
    EXPECT_THROW(args.addDouble("x", 1.0, ""), Error);
}

// ---------------------------------------------------------------- config

TEST(ConfigTest, ParsesSectionsAndValues)
{
    std::stringstream ss(
        "# comment\n[alpha]\nx = 1.5\nname = hello\n\n"
        "[beta]\nn = 42\n");
    sim::Config cfg = sim::Config::parse(ss);
    EXPECT_TRUE(cfg.hasSection("alpha"));
    EXPECT_DOUBLE_EQ(cfg.getDouble("alpha", "x"), 1.5);
    EXPECT_EQ(cfg.getString("alpha", "name"), "hello");
    EXPECT_EQ(cfg.getLong("beta", "n"), 42);
    EXPECT_EQ(cfg.sections(),
              (std::vector<std::string>{"alpha", "beta"}));
    EXPECT_EQ(cfg.keys("alpha"),
              (std::vector<std::string>{"name", "x"}));
}

TEST(ConfigTest, DefaultsWhenAbsent)
{
    std::stringstream ss("[s]\nk = 1\n");
    sim::Config cfg = sim::Config::parse(ss);
    EXPECT_DOUBLE_EQ(cfg.getDouble("s", "missing", 9.0), 9.0);
    EXPECT_EQ(cfg.getLong("other", "k", 5), 5);
    EXPECT_EQ(cfg.getString("s", "missing", "d"), "d");
}

TEST(ConfigTest, ErrorsCarryContext)
{
    std::stringstream ss("[s]\nk = abc\n");
    sim::Config cfg = sim::Config::parse(ss);
    try {
        cfg.getDouble("s", "k");
        FAIL() << "expected an error";
    } catch (const Error &e) {
        EXPECT_NE(std::string(e.what()).find("[s] k"),
                  std::string::npos);
    }
}

TEST(ConfigTest, RejectsMalformedInput)
{
    std::stringstream no_section("k = 1\n");
    EXPECT_THROW(sim::Config::parse(no_section), Error);
    std::stringstream bad_header("[oops\nk = 1\n");
    EXPECT_THROW(sim::Config::parse(bad_header), Error);
    std::stringstream no_eq("[s]\njust text\n");
    EXPECT_THROW(sim::Config::parse(no_eq), Error);
}

TEST(ConfigTest, RoundTripThroughWrite)
{
    sim::Config cfg;
    cfg.set("a", "x", "1.25");
    cfg.set("b", "y", "hello");
    std::stringstream ss;
    cfg.write(ss);
    sim::Config back = sim::Config::parse(ss);
    EXPECT_DOUBLE_EQ(back.getDouble("a", "x"), 1.25);
    EXPECT_EQ(back.getString("b", "y"), "hello");
}

TEST(ConfigTest, LoadRejectsMissingFile)
{
    EXPECT_THROW(sim::Config::load("/nonexistent/h2p.ini"), Error);
}

TEST(ConfigTest, RejectsNonFiniteNumbers)
{
    // strtod happily consumes "1e400" (overflow -> inf), "inf" and
    // "nan"; none of them is a usable simulation parameter, so the
    // typed accessor must reject them with the section/key context.
    std::stringstream ss(
        "[s]\nover = 1e400\nneg = -1e400\ninfinity = inf\nnan = nan\n"
        "ok = 1.5\n");
    sim::Config cfg = sim::Config::parse(ss);
    EXPECT_THROW(cfg.getDouble("s", "over"), Error);
    EXPECT_THROW(cfg.getDouble("s", "neg"), Error);
    EXPECT_THROW(cfg.getDouble("s", "infinity"), Error);
    EXPECT_THROW(cfg.getDouble("s", "nan"), Error);
    EXPECT_DOUBLE_EQ(cfg.getDouble("s", "ok"), 1.5);
    try {
        cfg.getDouble("s", "over");
        FAIL() << "expected an error";
    } catch (const Error &e) {
        EXPECT_NE(std::string(e.what()).find("[s] over"),
                  std::string::npos);
    }
}

TEST(ConfigTest, RejectsTrailingGarbageAndEmptyValues)
{
    // Pins the parse contract: partial parses never pass silently.
    std::stringstream ss("[s]\ngarbage = 1.5x\nempty =\n");
    sim::Config cfg = sim::Config::parse(ss);
    EXPECT_THROW(cfg.getDouble("s", "garbage"), Error);
    EXPECT_THROW(cfg.getDouble("s", "empty"), Error);
    EXPECT_THROW(cfg.getLong("s", "garbage"), Error);
}

TEST(ConfigTest, RejectsDuplicateKeys)
{
    // A duplicated key silently overwrote its first value; the last
    // writer won and the user never learned the file was ambiguous.
    std::stringstream ss("[s]\nk = 1\nk = 2\n");
    try {
        sim::Config::parse(ss);
        FAIL() << "expected an error";
    } catch (const Error &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("duplicate key"), std::string::npos);
        EXPECT_NE(msg.find("line 3"), std::string::npos);
    }
    // The same key in different sections is fine.
    std::stringstream ok("[a]\nk = 1\n[b]\nk = 2\n");
    EXPECT_NO_THROW(sim::Config::parse(ok));
}

TEST(ConfigTest, ParsesBooleans)
{
    std::stringstream ss(
        "[s]\na = true\nb = FALSE\nc = 1\nd = 0\ne = on\nf = Off\n"
        "g = yes\nh = no\nbad = maybe\n");
    sim::Config cfg = sim::Config::parse(ss);
    EXPECT_TRUE(cfg.getBool("s", "a"));
    EXPECT_FALSE(cfg.getBool("s", "b"));
    EXPECT_TRUE(cfg.getBool("s", "c"));
    EXPECT_FALSE(cfg.getBool("s", "d"));
    EXPECT_TRUE(cfg.getBool("s", "e"));
    EXPECT_FALSE(cfg.getBool("s", "f"));
    EXPECT_TRUE(cfg.getBool("s", "g"));
    EXPECT_FALSE(cfg.getBool("s", "h"));
    EXPECT_THROW(cfg.getBool("s", "bad"), Error);
    EXPECT_TRUE(cfg.getBool("s", "missing", true));
    EXPECT_FALSE(cfg.getBool("s", "missing", false));
}

// -------------------------------------------------------------- bindings

TEST(ConfigIoTest, EmptyIniYieldsDefaults)
{
    sim::Config ini;
    core::H2PConfig cfg = core::configFromIni(ini);
    core::H2PConfig defaults;
    EXPECT_EQ(cfg.datacenter.num_servers,
              defaults.datacenter.num_servers);
    EXPECT_DOUBLE_EQ(cfg.optimizer.t_safe_c,
                     defaults.optimizer.t_safe_c);
    EXPECT_DOUBLE_EQ(cfg.datacenter.server.teg.voc_slope,
                     defaults.datacenter.server.teg.voc_slope);
}

TEST(ConfigIoTest, OverridesApply)
{
    std::stringstream ss(
        "[datacenter]\nnum_servers = 64\ncold_source_c = 15\n"
        "[optimizer]\nt_safe_c = 66\n"
        "[teg]\nresistance_ohm = 2.5\n");
    sim::Config ini = sim::Config::parse(ss);
    core::H2PConfig cfg = core::configFromIni(ini);
    EXPECT_EQ(cfg.datacenter.num_servers, 64u);
    EXPECT_DOUBLE_EQ(cfg.datacenter.cold_source_c, 15.0);
    EXPECT_DOUBLE_EQ(cfg.optimizer.t_safe_c, 66.0);
    EXPECT_DOUBLE_EQ(cfg.datacenter.server.teg.resistance_ohm, 2.5);
}

TEST(ConfigIoTest, TraceRequestParsing)
{
    std::stringstream ss(
        "[trace]\nprofile = irregular\nseed = 9\nservers = 32\n");
    sim::Config ini = sim::Config::parse(ss);
    core::TraceRequest req = core::traceRequestFromIni(ini);
    EXPECT_EQ(req.profile, workload::TraceProfile::Irregular);
    EXPECT_EQ(req.seed, 9u);
    EXPECT_EQ(req.servers, 32u);
    auto trace = core::makeTrace(req);
    EXPECT_EQ(trace.numServers(), 32u);
}

TEST(ConfigIoTest, RejectsUnknownProfile)
{
    std::stringstream ss("[trace]\nprofile = bursty\n");
    sim::Config ini = sim::Config::parse(ss);
    EXPECT_THROW(core::traceRequestFromIni(ini), Error);
}

TEST(ConfigIoTest, WarnsOnUnknownKeysAndSections)
{
    // `[perf] thread = 8` (missing the s) used to be silently ignored
    // and the run quietly stayed serial. It must warn, naming the key.
    std::stringstream ss(
        "[perf]\nthread = 8\n[typo_section]\nx = 1\n");
    sim::Config ini = sim::Config::parse(ss);

    std::ostringstream captured;
    Logger::instance().setStream(captured);
    core::configFromIni(ini);
    Logger::instance().setStream(std::cerr);

    std::string log = captured.str();
    EXPECT_NE(log.find("unknown key [perf] thread"),
              std::string::npos);
    EXPECT_NE(log.find("unknown section [typo_section]"),
              std::string::npos);
}

TEST(ConfigIoTest, CleanConfigDoesNotWarn)
{
    std::stringstream ss(
        "[datacenter]\nnum_servers = 40\n[perf]\nthreads = 2\n");
    sim::Config ini = sim::Config::parse(ss);
    std::ostringstream captured;
    Logger::instance().setStream(captured);
    core::configFromIni(ini);
    Logger::instance().setStream(std::cerr);
    EXPECT_EQ(captured.str(), "");
}

TEST(ConfigIoTest, ObsSectionBinds)
{
    std::stringstream ss(
        "[obs]\nenabled = true\njsonl_path = /tmp/t.jsonl\n"
        "csv_path = /tmp/t.csv\nprint_summary = 1\n"
        "max_events = 128\n");
    sim::Config ini = sim::Config::parse(ss);
    core::H2PConfig cfg = core::configFromIni(ini);
    EXPECT_TRUE(cfg.obs.enabled);
    EXPECT_EQ(cfg.obs.jsonl_path, "/tmp/t.jsonl");
    EXPECT_EQ(cfg.obs.csv_path, "/tmp/t.csv");
    EXPECT_TRUE(cfg.obs.print_summary);
    EXPECT_EQ(cfg.obs.max_events, 128u);
}

TEST(ConfigIoTest, ObsDefaultsOff)
{
    std::stringstream ss("[datacenter]\nnum_servers = 40\n");
    sim::Config ini = sim::Config::parse(ss);
    core::H2PConfig cfg = core::configFromIni(ini);
    EXPECT_FALSE(cfg.obs.enabled);
    EXPECT_TRUE(cfg.obs.jsonl_path.empty());
}

TEST(ConfigIoTest, ConfiguredSystemRuns)
{
    std::stringstream ss(
        "[datacenter]\nnum_servers = 40\n"
        "servers_per_circulation = 20\n"
        "[trace]\nprofile = common\nservers = 40\n");
    sim::Config ini = sim::Config::parse(ss);
    core::H2PSystem sys(core::configFromIni(ini));
    auto trace = core::makeTrace(core::traceRequestFromIni(ini));
    auto r = sys.run(trace, sched::Policy::TegLoadBalance);
    EXPECT_GT(r.summary.avg_teg_w, 2.0);
}

// ------------------------------------------------------ field table

std::string
fieldName(const core::ConfigField &f)
{
    return std::string("[") + f.section + "] " + f.key;
}

TEST(ConfigFieldTable, KeyReferenceListsEveryRow)
{
    const std::string doc = core::configKeyReference();
    size_t rows = 0;
    const auto listed = [&](const core::ConfigField &f, const auto &) {
        ++rows;
        EXPECT_NE(doc.find(fieldName(f) + "  " + f.doc), std::string::npos)
            << fieldName(f);
    };
    const core::H2PConfig cfg;
    const core::TraceRequest req;
    core::forEachConfigField(cfg, listed);
    core::forEachTraceField(req, listed);
    EXPECT_EQ(static_cast<size_t>(std::count(doc.begin(), doc.end(), '\n')),
              rows);
}

TEST(ConfigFieldTable, NegativeCountIsRejectedNamingTheKey)
{
    // A cast used to wrap -1 to SIZE_MAX: `[lookup] flow_points = -3`
    // threw std::length_error and `[balancer] max_pulls = -1` meant
    // "unbounded". Every unsigned row must refuse it by name.
    std::vector<core::ConfigField> counts;
    const auto collect = [&counts](const core::ConfigField &f,
                                   const auto &value) {
        using T = std::decay_t<decltype(value)>;
        if constexpr (std::is_unsigned_v<T> && !std::is_same_v<T, bool>)
            counts.push_back(f);
    };
    const core::H2PConfig cfg;
    const core::TraceRequest req;
    core::forEachConfigField(cfg, collect);
    core::forEachTraceField(req, collect);
    EXPECT_GE(counts.size(), 15u);

    for (const core::ConfigField &f : counts) {
        std::stringstream ss(std::string("[") + f.section + "]\n" + f.key +
                             " = -1\n");
        const sim::Config ini = sim::Config::parse(ss);
        try {
            core::configFromIni(ini);
            core::traceRequestFromIni(ini);
            ADD_FAILURE() << fieldName(f) << " = -1 was accepted";
        } catch (const Error &e) {
            EXPECT_NE(std::string(e.what()).find(fieldName(f)),
                      std::string::npos)
                << e.what();
        }
    }
}

/** Move a field to the nearest different value of its type. */
template <typename T>
void
nudge(T &value)
{
    if constexpr (std::is_same_v<T, bool>)
        value = !value;
    else if constexpr (std::is_same_v<T, double>)
        value = std::nextafter(value,
                               std::numeric_limits<double>::infinity());
    else if constexpr (std::is_same_v<T, std::string>)
        value += "_nudged";
    else
        value += 1;
}

/** RAII temp-file path cleaned up on scope exit. */
struct TempPath
{
    explicit TempPath(const std::string &name) : path(name) {}
    ~TempPath() { std::remove(path.c_str()); }
    std::string path;
};

std::string
recorderJsonl(const core::RunResult &result)
{
    std::ostringstream os;
    result.recorder->writeJsonl(os);
    return os.str();
}

TEST(ConfigFieldTable, EveryRowGuardsCheckpointAndJournalResume)
{
    // Each row nudged in turn: a result-relevant field must make both
    // resume checks refuse and name exactly that key; a result_neutral
    // one must resume into the same recorder bytes. A row added to the
    // table is covered here without a new test.
    core::H2PConfig base;
    base.datacenter.num_servers = 40;
    base.datacenter.servers_per_circulation = 20;
    base.perf.min_servers_per_thread = 1; // let threads = 2 fan out
    workload::TraceGenerator gen(21);
    // Wider than the fleet, so num_servers + 1 still has a trace.
    const workload::UtilizationTrace trace = gen.generate(
        workload::TraceGenParams::forProfile(
            workload::TraceProfile::Drastic),
        48, 3600.0);
    const auto gridOf = [&trace](const core::H2PConfig &cfg) {
        core::SweepPoint point;
        point.config = cfg;
        point.trace = &trace;
        point.label = "base";
        return std::vector<core::SweepPoint>{point};
    };

    const TempPath ckpt("config_test_rows.ckpt");
    const TempPath journal("config_test_rows.jsonl");
    std::string base_jsonl;
    {
        core::H2PSystem sys(base);
        core::SimSession session =
            sys.startSession(trace, sched::Policy::TegLoadBalance);
        for (size_t i = 0; i < 4; ++i)
            session.step();
        session.saveCheckpoint(ckpt.path);
        session.runToCompletion();
        base_jsonl = recorderJsonl(session.finish());
    }
    core::SweepOptions options;
    options.keep_recorders = false;
    options.journal_path = journal.path;
    core::SweepEngine engine(options);
    engine.run(gridOf(base));

    const auto errorOf = [](const auto &resume) {
        try {
            resume();
        } catch (const Error &e) {
            return std::string(e.what());
        }
        return std::string("(accepted)");
    };

    size_t rows = 0, neutral = 0;
    for (bool more = true; more; ++rows) {
        core::H2PConfig cfg = base;
        core::ConfigField field{};
        size_t i = 0;
        core::forEachConfigField(cfg, [&](const core::ConfigField &f,
                                          auto &value) {
            if (i++ == rows) {
                field = f;
                nudge(value);
            }
        });
        more = rows + 1 < i;
        const std::string name = fieldName(field);
        SCOPED_TRACE(name);
        core::H2PSystem sys(cfg);
        if (field.result_neutral) {
            ++neutral;
            core::SimSession session =
                sys.resumeSession(ckpt.path, trace);
            session.runToCompletion();
            EXPECT_EQ(recorderJsonl(session.finish()), base_jsonl);
            EXPECT_NO_THROW(engine.resume(gridOf(cfg)));
            continue;
        }
        const std::string ckpt_error =
            errorOf([&] { sys.resumeSession(ckpt.path, trace); });
        EXPECT_NE(ckpt_error.find("(differing: " + name + ")"),
                  std::string::npos)
            << ckpt_error;
        const std::string journal_error =
            errorOf([&] { engine.resume(gridOf(cfg)); });
        EXPECT_NE(journal_error.find("configuration (" + name + ")"),
                  std::string::npos)
            << journal_error;
    }
    EXPECT_GE(rows, 66u);
    EXPECT_EQ(neutral, 7u);
}

} // namespace
} // namespace h2p
