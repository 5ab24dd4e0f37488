/**
 * @file
 * Typed key-value configuration store with INI-style file parsing and
 * "key=value" command-line overrides.
 *
 * Keys are dotted paths such as "hmc.num_vaults" or "host.num_ports".
 * Section headers in files ("[hmc]") become key prefixes.  All values are
 * stored as strings and converted on access with full validation; a
 * malformed value is a user error and raises fatal().
 */

#ifndef HMCSIM_COMMON_CONFIG_H_
#define HMCSIM_COMMON_CONFIG_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hmcsim {

class Config
{
  public:
    Config() = default;

    /** Set (or overwrite) a key. */
    void set(const std::string &key, const std::string &value);
    void setU64(const std::string &key, std::uint64_t value);
    void setDouble(const std::string &key, double value);
    void setBool(const std::string &key, bool value);

    /** True if @p key is present. */
    bool has(const std::string &key) const;

    /** Remove a key; returns true if it existed. */
    bool erase(const std::string &key);

    /**
     * Typed getters.  The no-default overloads raise fatal() on a
     * missing key; all of them raise fatal() on a malformed value.
     */
    std::string getString(const std::string &key) const;
    std::string getString(const std::string &key,
                          const std::string &fallback) const;
    std::uint64_t getU64(const std::string &key) const;
    std::uint64_t getU64(const std::string &key,
                         std::uint64_t fallback) const;
    double getDouble(const std::string &key) const;
    double getDouble(const std::string &key, double fallback) const;
    bool getBool(const std::string &key) const;
    bool getBool(const std::string &key, bool fallback) const;

    /**
     * Parse INI-style content.  Supports [section] headers, '#' and ';'
     * comments, and key = value lines.  Later keys overwrite earlier ones.
     */
    void parseString(const std::string &content);

    /** Parse a file; raises fatal() if it cannot be opened. */
    void parseFile(const std::string &path);

    /**
     * Apply "key=value" overrides (e.g. from argv).  Entries without '='
     * raise fatal().
     */
    void applyOverrides(const std::vector<std::string> &overrides);

    /** All keys in sorted order (for dumps and diffing). */
    std::vector<std::string> keys() const;

    /** Render the whole config as sorted "key = value" lines. */
    std::string toString() const;

    /** Merge @p other into this config; other's keys win. */
    void merge(const Config &other);

  private:
    std::map<std::string, std::string> values_;

    const std::string *find(const std::string &key) const;
};

/**
 * Walkers over a config struct's key list.  Each struct's .cc keeps
 * one `fields(c, f)` template calling `f("key", c.member)` once per
 * key; fromConfig walks it with a ConfigReader and toConfig with a
 * ConfigWriter, so every key is spelled once.  The overload on the
 * member's type picks the Config getter or setter.  A reader keeps a
 * member's current value when its key is absent.  @c prefix is put in
 * front of every key (a workload spec's "host.port3.").
 */
struct ConfigReader {
    const Config &cfg;
    std::string prefix = "";

    /** Raises fatal() naming the key when the value exceeds 32 bits. */
    void operator()(const char *key, std::uint32_t &v) const;
    void operator()(const char *key, std::uint64_t &v) const;
    void operator()(const char *key, double &v) const;
    void operator()(const char *key, bool &v) const;
    void operator()(const char *key, std::string &v) const;
};

struct ConfigWriter {
    Config &cfg;
    std::string prefix = "";

    void operator()(const char *key, std::uint32_t v) const;
    void operator()(const char *key, std::uint64_t v) const;
    void operator()(const char *key, double v) const;
    void operator()(const char *key, bool v) const;
    void operator()(const char *key, const std::string &v) const;
};

}  // namespace hmcsim

#endif  // HMCSIM_COMMON_CONFIG_H_
