#include "common/config.h"

#include <cstdint>
#include <fstream>
#include <sstream>

#include "common/log.h"
#include "common/strutil.h"

namespace hmcsim {

void
Config::set(const std::string &key, const std::string &value)
{
    values_[key] = value;
}

void
Config::setU64(const std::string &key, std::uint64_t value)
{
    values_[key] = std::to_string(value);
}

void
Config::setDouble(const std::string &key, double value)
{
    std::ostringstream oss;
    oss.precision(17);
    oss << value;
    values_[key] = oss.str();
}

void
Config::setBool(const std::string &key, bool value)
{
    values_[key] = value ? "true" : "false";
}

bool
Config::has(const std::string &key) const
{
    return values_.count(key) != 0;
}

bool
Config::erase(const std::string &key)
{
    return values_.erase(key) != 0;
}

const std::string *
Config::find(const std::string &key) const
{
    auto it = values_.find(key);
    return it == values_.end() ? nullptr : &it->second;
}

std::string
Config::getString(const std::string &key) const
{
    const std::string *v = find(key);
    if (!v)
        fatal("config: missing required key '" + key + "'");
    return *v;
}

std::string
Config::getString(const std::string &key, const std::string &fallback) const
{
    const std::string *v = find(key);
    return v ? *v : fallback;
}

std::uint64_t
Config::getU64(const std::string &key) const
{
    std::uint64_t out = 0;
    if (!parseU64(getString(key), out))
        fatal("config: key '" + key + "' is not an unsigned integer");
    return out;
}

std::uint64_t
Config::getU64(const std::string &key, std::uint64_t fallback) const
{
    const std::string *v = find(key);
    if (!v)
        return fallback;
    std::uint64_t out = 0;
    if (!parseU64(*v, out))
        fatal("config: key '" + key + "' is not an unsigned integer");
    return out;
}

double
Config::getDouble(const std::string &key) const
{
    double out = 0.0;
    if (!parseDouble(getString(key), out))
        fatal("config: key '" + key + "' is not a number");
    return out;
}

double
Config::getDouble(const std::string &key, double fallback) const
{
    const std::string *v = find(key);
    if (!v)
        return fallback;
    double out = 0.0;
    if (!parseDouble(*v, out))
        fatal("config: key '" + key + "' is not a number");
    return out;
}

bool
Config::getBool(const std::string &key) const
{
    bool out = false;
    if (!parseBool(getString(key), out))
        fatal("config: key '" + key + "' is not a boolean");
    return out;
}

bool
Config::getBool(const std::string &key, bool fallback) const
{
    const std::string *v = find(key);
    if (!v)
        return fallback;
    bool out = false;
    if (!parseBool(*v, out))
        fatal("config: key '" + key + "' is not a boolean");
    return out;
}

void
Config::parseString(const std::string &content)
{
    std::istringstream iss(content);
    std::string line;
    std::string section;
    int lineno = 0;
    while (std::getline(iss, line)) {
        ++lineno;
        // Strip comments starting at '#' or ';'.
        std::size_t hash = line.find_first_of("#;");
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        line = trim(line);
        if (line.empty())
            continue;
        if (line.front() == '[') {
            if (line.back() != ']')
                fatal("config: malformed section header at line " +
                      std::to_string(lineno));
            section = trim(line.substr(1, line.size() - 2));
            continue;
        }
        std::size_t eq = line.find('=');
        if (eq == std::string::npos)
            fatal("config: expected key=value at line " +
                  std::to_string(lineno));
        std::string key = trim(line.substr(0, eq));
        std::string value = trim(line.substr(eq + 1));
        if (key.empty())
            fatal("config: empty key at line " + std::to_string(lineno));
        if (!section.empty())
            key = section + "." + key;
        values_[key] = value;
    }
}

void
Config::parseFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("config: cannot open file '" + path + "'");
    std::ostringstream oss;
    oss << in.rdbuf();
    parseString(oss.str());
}

void
Config::applyOverrides(const std::vector<std::string> &overrides)
{
    for (const std::string &ov : overrides) {
        std::size_t eq = ov.find('=');
        if (eq == std::string::npos)
            fatal("config: override '" + ov + "' is not key=value");
        values_[trim(ov.substr(0, eq))] = trim(ov.substr(eq + 1));
    }
}

std::vector<std::string>
Config::keys() const
{
    std::vector<std::string> out;
    out.reserve(values_.size());
    for (const auto &kv : values_)
        out.push_back(kv.first);
    return out;
}

std::string
Config::toString() const
{
    std::ostringstream oss;
    for (const auto &kv : values_)
        oss << kv.first << " = " << kv.second << '\n';
    return oss.str();
}

void
Config::merge(const Config &other)
{
    for (const auto &kv : other.values_)
        values_[kv.first] = kv.second;
}

void
ConfigReader::operator()(const char *key, std::uint32_t &v) const
{
    const std::string k = prefix + key;
    const std::uint64_t wide = cfg.getU64(k, v);
    if (wide > UINT32_MAX)
        fatal("config: key '" + k + "' value " + std::to_string(wide) +
              " does not fit in 32 bits");
    v = static_cast<std::uint32_t>(wide);
}

void
ConfigReader::operator()(const char *key, std::uint64_t &v) const
{
    v = cfg.getU64(prefix + key, v);
}

void
ConfigReader::operator()(const char *key, double &v) const
{
    v = cfg.getDouble(prefix + key, v);
}

void
ConfigReader::operator()(const char *key, bool &v) const
{
    v = cfg.getBool(prefix + key, v);
}

void
ConfigReader::operator()(const char *key, std::string &v) const
{
    v = cfg.getString(prefix + key, v);
}

void
ConfigWriter::operator()(const char *key, std::uint32_t v) const
{
    cfg.setU64(prefix + key, v);
}

void
ConfigWriter::operator()(const char *key, std::uint64_t v) const
{
    cfg.setU64(prefix + key, v);
}

void
ConfigWriter::operator()(const char *key, double v) const
{
    cfg.setDouble(prefix + key, v);
}

void
ConfigWriter::operator()(const char *key, bool v) const
{
    cfg.setBool(prefix + key, v);
}

void
ConfigWriter::operator()(const char *key, const std::string &v) const
{
    cfg.set(prefix + key, v);
}

}  // namespace hmcsim
