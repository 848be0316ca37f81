// Minimal INI-style configuration reader for scenario files.
//
// Format: `[section]` headers, `key = value` pairs, `#` or `;` comments,
// blank lines ignored. Keys are addressed as "section.key"; keys before
// any section live in "". Each key remembers the line that set it, so a
// value that does not parse as the type it is read as is an error naming
// that line.
//
// Used by the examples so experiment definitions can live in versioned
// text files rather than recompiled constants.

#ifndef SRC_SIM_CONFIG_H_
#define SRC_SIM_CONFIG_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace centsim {

class Config {
 public:
  // Parses `text`; returns nullopt and sets `error` (if given) on the
  // first malformed line.
  static std::optional<Config> Parse(const std::string& text, std::string* error = nullptr);
  static std::optional<Config> Load(const std::string& path, std::string* error = nullptr);

  bool Has(const std::string& key) const;
  // Every key, sorted.
  std::vector<std::string> Keys() const;
  // The 1-based line that last set `key`; 0 for a missing key or one set
  // with Set().
  int LineOf(const std::string& key) const;

  // Typed reads. A missing key reads as `fallback`. A value that does not
  // parse as the type reads as nullopt and sets `error` (if given) to
  // "line N: key = 'value' is not <type>".
  std::string GetString(const std::string& key, const std::string& fallback = "") const;
  std::optional<int64_t> GetInt(const std::string& key, int64_t fallback = 0,
                                std::string* error = nullptr) const;
  std::optional<double> GetDouble(const std::string& key, double fallback = 0.0,
                                  std::string* error = nullptr) const;
  // true/yes/on/1 and false/no/off/0, any case.
  std::optional<bool> GetBool(const std::string& key, bool fallback = false,
                              std::string* error = nullptr) const;

  void Set(const std::string& key, const std::string& value) { values_[key] = {value, 0}; }
  size_t size() const { return values_.size(); }

 private:
  struct Entry {
    std::string value;
    int line = 0;
  };

  std::map<std::string, Entry> values_;
};

}  // namespace centsim

#endif  // SRC_SIM_CONFIG_H_
