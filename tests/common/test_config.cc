#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/config.h"
#include "common/log.h"

namespace hmcsim {
namespace {

TEST(Config, SetGetString)
{
    Config c;
    c.set("a.b", "hello");
    EXPECT_TRUE(c.has("a.b"));
    EXPECT_EQ(c.getString("a.b"), "hello");
    EXPECT_EQ(c.getString("missing", "dflt"), "dflt");
}

TEST(Config, MissingRequiredKeyIsFatal)
{
    Config c;
    EXPECT_THROW(c.getString("nope"), FatalError);
}

TEST(Config, TypedAccess)
{
    Config c;
    c.setU64("n", 42);
    c.setDouble("d", 2.5);
    c.setBool("b", true);
    EXPECT_EQ(c.getU64("n"), 42u);
    EXPECT_DOUBLE_EQ(c.getDouble("d"), 2.5);
    EXPECT_TRUE(c.getBool("b"));
    EXPECT_EQ(c.getU64("missing", 7), 7u);
    EXPECT_DOUBLE_EQ(c.getDouble("missing", 1.5), 1.5);
    EXPECT_FALSE(c.getBool("missing", false));
}

TEST(Config, MalformedValueIsFatal)
{
    Config c;
    c.set("n", "not-a-number");
    EXPECT_THROW(c.getU64("n"), FatalError);
    EXPECT_THROW(c.getDouble("n"), FatalError);
    EXPECT_THROW(c.getBool("n"), FatalError);
    // Even with a fallback, a present-but-malformed value is an error.
    EXPECT_THROW(c.getU64("n", 3), FatalError);
}

TEST(Config, ParseIniSections)
{
    Config c;
    c.parseString("top = 1\n"
                  "[hmc]\n"
                  "num_vaults = 16  # comment\n"
                  "topology = quadrant_xbar\n"
                  "[host]\n"
                  "num_ports=9\n");
    EXPECT_EQ(c.getU64("top"), 1u);
    EXPECT_EQ(c.getU64("hmc.num_vaults"), 16u);
    EXPECT_EQ(c.getString("hmc.topology"), "quadrant_xbar");
    EXPECT_EQ(c.getU64("host.num_ports"), 9u);
}

TEST(Config, ParseCommentsAndBlank)
{
    Config c;
    c.parseString("# full comment\n"
                  "\n"
                  "; semicolon comment\n"
                  "key = value ; trailing\n");
    EXPECT_EQ(c.getString("key"), "value");
}

TEST(Config, ParseErrors)
{
    Config c;
    EXPECT_THROW(c.parseString("novalue\n"), FatalError);
    EXPECT_THROW(c.parseString("[unclosed\n"), FatalError);
    EXPECT_THROW(c.parseString("= bare\n"), FatalError);
}

TEST(Config, LaterKeysWin)
{
    Config c;
    c.parseString("k = 1\nk = 2\n");
    EXPECT_EQ(c.getU64("k"), 2u);
}

TEST(Config, Overrides)
{
    Config c;
    c.set("a", "1");
    c.applyOverrides({"a=2", "b.c = 3"});
    EXPECT_EQ(c.getU64("a"), 2u);
    EXPECT_EQ(c.getU64("b.c"), 3u);
    EXPECT_THROW(c.applyOverrides({"noequals"}), FatalError);
}

TEST(Config, KeysSortedAndToString)
{
    Config c;
    c.set("z", "1");
    c.set("a", "2");
    const auto keys = c.keys();
    ASSERT_EQ(keys.size(), 2u);
    EXPECT_EQ(keys[0], "a");
    EXPECT_EQ(keys[1], "z");
    EXPECT_NE(c.toString().find("a = 2"), std::string::npos);
}

TEST(Config, MergeOtherWins)
{
    Config a;
    a.set("k", "1");
    a.set("only_a", "x");
    Config b;
    b.set("k", "2");
    a.merge(b);
    EXPECT_EQ(a.getU64("k"), 2u);
    EXPECT_EQ(a.getString("only_a"), "x");
}

TEST(Config, Erase)
{
    Config c;
    c.set("k", "1");
    EXPECT_TRUE(c.erase("k"));
    EXPECT_FALSE(c.erase("k"));
    EXPECT_FALSE(c.has("k"));
}

TEST(Config, ReaderAndWriterPickTheTypedAccessors)
{
    Config in;
    in.parseString("p.n = 7\n"
                   "p.wide = 8589934592\n"
                   "p.d = 2.5\n"
                   "p.b = on\n"
                   "p.s = text\n");
    std::uint32_t n = 1;
    std::uint64_t wide = 1;
    double d = 0.0;
    bool b = false;
    std::string s;
    std::uint32_t absent = 9;
    const ConfigReader read{in, "p."};
    read("n", n);
    read("wide", wide);
    read("d", d);
    read("b", b);
    read("s", s);
    read("absent", absent);
    EXPECT_EQ(n, 7u);
    EXPECT_EQ(wide, 8589934592u);
    EXPECT_DOUBLE_EQ(d, 2.5);
    EXPECT_TRUE(b);
    EXPECT_EQ(s, "text");
    EXPECT_EQ(absent, 9u);  // absent key keeps the current value

    Config out;
    const ConfigWriter write{out, "q."};
    write("n", n);
    write("d", 0.1);
    write("b", b);
    write("s", s);
    EXPECT_EQ(out.toString(), "q.b = true\n"
                              "q.d = 0.10000000000000001\n"
                              "q.n = 7\n"
                              "q.s = text\n");
}

TEST(Config, ReaderRejectsA32BitOverflow)
{
    Config c;
    c.set("k", "4294967295");
    std::uint32_t v = 0;
    ConfigReader{c}("k", v);
    EXPECT_EQ(v, 4294967295u);
    c.set("k", "4294967296");
    EXPECT_THROW(ConfigReader{c}("k", v), FatalError);
    std::uint64_t wide = 0;
    EXPECT_NO_THROW(ConfigReader{c}("k", wide));
    EXPECT_EQ(wide, 4294967296u);
}

TEST(Config, ParseFileMissingIsFatal)
{
    Config c;
    EXPECT_THROW(c.parseFile("/nonexistent/path/cfg.ini"), FatalError);
}

}  // namespace
}  // namespace hmcsim
